package workload

import (
	"fmt"

	"firefly/internal/topaz"
)

// PipelineConfig describes an Ultrix-style shell pipeline ("pipelines of
// applications such as the text processing utilities awk, grep, and sed",
// §2): a chain of stages connected by bounded buffers, each stage a
// thread.
type PipelineConfig struct {
	// Stages is the number of filter processes (default 3).
	Stages int
	// Items is the number of work items pushed through (default 40).
	Items int
	// CostPerItem is each stage's per-item work in instructions
	// (default 2000).
	CostPerItem uint64
}

func (c PipelineConfig) withDefaults() PipelineConfig {
	if c.Stages == 0 {
		c.Stages = 3
	}
	if c.Items == 0 {
		c.Items = 40
	}
	if c.CostPerItem == 0 {
		c.CostPerItem = 2000
	}
	return c
}

// bufferSlots bounds each inter-stage buffer.
const bufferSlots = 4

// pipeBuffer is a bounded queue between stages, implemented with Topaz
// primitives exactly as a Topaz program would write it: one mutex, two
// condition variables.
type pipeBuffer struct {
	mu       *topaz.Mutex
	notFull  *topaz.CondVar
	notEmpty *topaz.CondVar
	items    []int
	cap      int
}

func newPipeBuffer(k *topaz.Kernel, name string, slots int) *pipeBuffer {
	return &pipeBuffer{
		mu:       k.NewMutex(name + ".mu"),
		notFull:  k.NewCond(name + ".notFull"),
		notEmpty: k.NewCond(name + ".notEmpty"),
		cap:      slots,
	}
}

// PipelineResult reports a pipeline run.
type PipelineResult struct {
	// Output is the item sequence observed at the sink.
	Output []int
	// Cycles is the simulated end-to-end time.
	Cycles uint64
	// OK reports completion within the budget.
	OK bool
}

// RunPipeline builds and runs the pipeline: a source producing Items
// integers, Stages filters that transform (add 1) and forward, and a sink
// that records the output.
func RunPipeline(k *topaz.Kernel, cfg PipelineConfig, maxCycles uint64) PipelineResult {
	cfg = cfg.withDefaults()
	res := PipelineResult{}
	space := k.NewSpace("pipeline", false)
	start := k.Machine().Clock().Now()

	bufs := make([]*pipeBuffer, cfg.Stages+1)
	for i := range bufs {
		bufs[i] = newPipeBuffer(k, fmt.Sprintf("pipe%d", i), bufferSlots)
	}

	// Source.
	k.Fork(producerProgram(bufs[0], cfg.Items, 0), topaz.ThreadSpec{Name: "source"}, space)
	// Filters: read bufs[i], add 1, write bufs[i+1].
	for s := 0; s < cfg.Stages; s++ {
		k.Fork(filterProgram(bufs[s], bufs[s+1], cfg.Items, cfg.CostPerItem),
			topaz.ThreadSpec{Name: fmt.Sprintf("stage%d", s)}, space)
	}
	// Sink.
	k.Fork(sinkProgram(bufs[cfg.Stages], cfg.Items, &res.Output),
		topaz.ThreadSpec{Name: "sink"}, space)

	res.OK = k.RunUntilDone(maxCycles)
	res.Cycles = uint64(k.Machine().Clock().Now() - start)
	return res
}

// producerProgram pushes values 0..n-1 into out.
func producerProgram(out *pipeBuffer, n, base int) topaz.Program {
	i := 0
	state := 0
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		for {
			switch state {
			case 0:
				if i >= n {
					return topaz.Exit{}
				}
				state = 1
				return topaz.Lock{M: out.mu}
			case 1:
				if len(out.items) >= out.cap {
					return topaz.Wait{CV: out.notFull, M: out.mu}
				}
				out.items = append(out.items, base+i)
				i++
				state = 2
				return topaz.Signal{CV: out.notEmpty}
			case 2:
				state = 0
				return topaz.Unlock{M: out.mu}
			}
		}
	})
}

// filterProgram moves n items from in to out, adding one to each and
// computing cost instructions per item.
func filterProgram(in, out *pipeBuffer, n int, cost uint64) topaz.Program {
	moved := 0
	state := 0
	item := 0
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		for {
			switch state {
			case 0: // take from in
				if moved >= n {
					return topaz.Exit{}
				}
				state = 1
				return topaz.Lock{M: in.mu}
			case 1:
				if len(in.items) == 0 {
					return topaz.Wait{CV: in.notEmpty, M: in.mu}
				}
				item = in.items[0]
				in.items = in.items[1:]
				state = 2
				return topaz.Signal{CV: in.notFull}
			case 2:
				state = 3
				return topaz.Unlock{M: in.mu}
			case 3: // the filter's work
				state = 4
				return topaz.Compute{Instructions: cost}
			case 4: // put to out
				state = 5
				return topaz.Lock{M: out.mu}
			case 5:
				if len(out.items) >= out.cap {
					return topaz.Wait{CV: out.notFull, M: out.mu}
				}
				out.items = append(out.items, item+1)
				moved++
				state = 6
				return topaz.Signal{CV: out.notEmpty}
			case 6:
				state = 0
				return topaz.Unlock{M: out.mu}
			}
		}
	})
}

// sinkProgram drains n items from in into sink.
func sinkProgram(in *pipeBuffer, n int, sink *[]int) topaz.Program {
	state := 0
	taken := 0
	return topaz.ProgramFunc(func(*topaz.Thread) topaz.Action {
		for {
			switch state {
			case 0:
				if taken >= n {
					return topaz.Exit{}
				}
				state = 1
				return topaz.Lock{M: in.mu}
			case 1:
				if len(in.items) == 0 {
					return topaz.Wait{CV: in.notEmpty, M: in.mu}
				}
				*sink = append(*sink, in.items[0])
				in.items = in.items[1:]
				taken++
				state = 2
				return topaz.Signal{CV: in.notFull}
			case 2:
				state = 0
				return topaz.Unlock{M: in.mu}
			}
		}
	})
}
