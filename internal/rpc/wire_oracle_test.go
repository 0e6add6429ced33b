package rpc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"firefly/internal/machine"
	"firefly/internal/mbus"
	"firefly/internal/qbus"
	"firefly/internal/sim"
)

// This file keeps the receive path the node ran before it parsed frames
// in place in its receive slots: a frame copied out of memory, parsed by
// refParseFrag into a fragment with its own data bytes, reassembled by
// appending to a fresh buffer per message, and decoded by refUnmarshal
// into a Message with its own payload. TestReceiveMatchesReference feeds
// the node and this reference the same frames.

type refFrag struct {
	src, dst     int
	id           uint32
	kind         MsgKind
	index, count int
	total        int
	data         []byte
}

func refParseFrag(words []uint32) (refFrag, error) {
	if len(words) < frameHeaderWords {
		return refFrag{}, fmt.Errorf("rpc: short frame (%d words)", len(words))
	}
	f := refFrag{
		dst:   int(words[0] & 0xffff),
		src:   int(words[0] >> 16),
		id:    words[1],
		kind:  MsgKind(words[2] >> 24),
		count: int(words[2] >> 12 & 0xfff),
		index: int(words[2] & 0xfff),
		total: int(words[4]),
	}
	n := int(words[3])
	switch {
	case f.count < 1:
		return refFrag{}, fmt.Errorf("rpc: frame with zero fragment count")
	case f.index >= f.count:
		return refFrag{}, fmt.Errorf("rpc: fragment %d of %d", f.index, f.count)
	case n > FragDataBytes:
		return refFrag{}, fmt.Errorf("rpc: fragment of %d bytes exceeds %d", n, FragDataBytes)
	case f.total > headerBytes+MaxPayload:
		return refFrag{}, fmt.Errorf("rpc: message of %d bytes exceeds maximum", f.total)
	case len(words) != frameHeaderWords+(n+3)/4:
		return refFrag{}, fmt.Errorf("rpc: frame length %d does not match %d data bytes", len(words), n)
	}
	f.data = make([]byte, n)
	for i := range f.data {
		f.data[i] = byte(words[frameHeaderWords+i/4] >> (24 - 8*uint(i%4)))
	}
	return f, nil
}

func refUnmarshal(buf []byte) (*Message, error) {
	if len(buf) < headerBytes {
		return nil, fmt.Errorf("rpc: short message (%d bytes)", len(buf))
	}
	m := &Message{
		Kind: MsgKind(buf[0]),
		ID:   binary.BigEndian.Uint32(buf[1:]),
		Proc: binary.BigEndian.Uint16(buf[5:]),
	}
	if m.Kind != Call && m.Kind != Reply {
		return nil, fmt.Errorf("rpc: bad message kind %d", m.Kind)
	}
	n := binary.BigEndian.Uint32(buf[7:])
	if n > MaxPayload {
		return nil, fmt.Errorf("rpc: payload length %d exceeds %d", n, MaxPayload)
	}
	if len(buf) != headerBytes+int(n) {
		return nil, fmt.Errorf("rpc: length mismatch: header says %d, have %d", n, len(buf)-headerBytes)
	}
	m.Payload = append([]byte(nil), buf[headerBytes:]...)
	return m, nil
}

// rxOutcome is what one received frame did: the counter it bumped, or
// the message it completed, or nothing (a fragment kept for later).
type rxOutcome struct {
	what string
	src  int
	msg  Message
}

func (o rxOutcome) String() string {
	if o.what != "message" {
		return o.what
	}
	return fmt.Sprintf("message from %d: kind %d id %d proc %d payload %x", o.src, o.msg.Kind, o.msg.ID, o.msg.Proc, o.msg.Payload)
}

type refReasm struct {
	data               []byte
	next, count, total int
}

// refReceiver is the reference receive path of station.
type refReceiver struct {
	station int
	reasms  map[uint64]*refReasm
}

func (rr *refReceiver) frame(words []uint32) rxOutcome {
	f, err := refParseFrag(words)
	if err != nil {
		return rxOutcome{what: "bad frame"}
	}
	if f.dst != rr.station {
		return rxOutcome{what: "misrouted"}
	}
	key := uint64(f.src)<<48 | uint64(f.kind)<<32 | uint64(f.id)
	r := rr.reasms[key]
	if f.index == 0 {
		r = &refReasm{count: f.count, total: f.total}
		rr.reasms[key] = r
	} else if r == nil || f.index != r.next || f.count != r.count || f.total != r.total {
		if r != nil {
			delete(rr.reasms, key)
		}
		return rxOutcome{what: "fragment dropped"}
	}
	r.data = append(r.data, f.data...)
	r.next++
	if r.next < r.count {
		return rxOutcome{what: "fragment kept"}
	}
	delete(rr.reasms, key)
	if len(r.data) != r.total {
		return rxOutcome{what: "bad message"}
	}
	msg, err := refUnmarshal(r.data)
	if err != nil {
		return rxOutcome{what: "bad message"}
	}
	return rxOutcome{what: "message", src: f.src, msg: *msg}
}

// nodeFrame puts words in n's first receive slot, as the receive DMA
// would, and runs the node's parse and reassembly on it.
func nodeFrame(n *Node, words []uint32) rxOutcome {
	phys, _ := n.slotAddr(slots / 2)
	for k, w := range words {
		n.m.Memory().Poke(phys+mbus.Addr(4*k), w)
	}
	before := n.stats
	src, h, payload, r := n.assemble(phys, len(words))
	after := n.stats
	switch {
	case r != nil:
		o := rxOutcome{what: "message", src: src, msg: Message{Kind: h.kind, ID: h.id, Proc: h.proc}}
		if len(payload) > 0 {
			o.msg.Payload = append([]byte(nil), payload...)
		}
		n.freeReasm(r)
		return o
	case after.BadFrames != before.BadFrames:
		return rxOutcome{what: "bad frame"}
	case after.Misrouted != before.Misrouted:
		return rxOutcome{what: "misrouted"}
	case after.FragDrops != before.FragDrops:
		return rxOutcome{what: "fragment dropped"}
	case after.BadMessages != before.BadMessages:
		return rxOutcome{what: "bad message"}
	}
	return rxOutcome{what: "fragment kept"}
}

// TestReceiveMatchesReference feeds the node's receive path and the
// reference the same frames — the FuzzFrame and FuzzMessage seed
// corpora, then random message streams delivered in order, reordered,
// duplicated, dropped, corrupted and truncated — and demands the same
// outcome for every frame: the same rejections, and the same completed
// messages.
func TestReceiveMatchesReference(t *testing.T) {
	const station = 1
	n := NewNode(machine.New(machine.MicroVAXConfig(1)), station, dropMedium{}, NodeConfig{})
	ref := &refReceiver{station: station, reasms: map[uint64]*refReasm{}}
	kinds := map[string]int{}
	feed := func(label string, words []uint32) {
		t.Helper()
		if len(words) > slotBytes/4 {
			words = words[:slotBytes/4]
		}
		want := ref.frame(words)
		got := nodeFrame(n, words)
		if got.what != want.what || got.src != want.src || got.msg.Kind != want.msg.Kind ||
			got.msg.ID != want.msg.ID || got.msg.Proc != want.msg.Proc || !bytes.Equal(got.msg.Payload, want.msg.Payload) {
			t.Fatalf("%s: frame %x\n node: %v\n  ref: %v", label, words, got, want)
		}
		kinds[want.what]++
	}

	for i, words := range frameSeeds(t) {
		feed(fmt.Sprintf("FuzzFrame seed %d", i), words)
	}
	for i, buf := range messageSeeds(t) {
		var id uint32
		if len(buf) >= 5 {
			id = binary.BigEndian.Uint32(buf[1:])
		}
		for _, words := range PackFrames(station, 0, id, Call, buf) {
			feed(fmt.Sprintf("FuzzMessage seed %d", i), words)
		}
	}

	r := sim.NewRand(33)
	for round := 0; round < 400; round++ {
		// A few messages, some from the same source with the same ID, so
		// their reassemblies collide.
		var stream [][]uint32
		for m := 0; m < 1+r.Intn(3); m++ {
			var size int
			switch r.Intn(4) {
			case 0:
				size = r.Intn(40)
			case 1:
				size = FragDataBytes - headerBytes - 2 + r.Intn(5)
			default:
				size = r.Intn(3 * FragDataBytes)
			}
			payload := make([]byte, size)
			for i := range payload {
				payload[i] = byte(r.Uint64())
			}
			msg := &Message{Kind: MsgKind(1 + r.Intn(2)), ID: uint32(r.Intn(3)), Proc: uint16(r.Uint64()), Payload: payload}
			buf, err := msg.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if r.Intn(8) == 0 {
				buf = buf[:r.Intn(len(buf)+1)] // not a valid message
			}
			dst := station
			if r.Intn(16) == 0 {
				dst = 2
			}
			stream = append(stream, PackFrames(dst, r.Intn(3), msg.ID, msg.Kind, buf)...)
		}
		for i := 0; i < len(stream); i++ {
			words := append([]uint32(nil), stream[i]...)
			switch r.Intn(12) {
			case 0: // reorder
				if i+1 < len(stream) {
					stream[i], stream[i+1] = stream[i+1], stream[i]
					words = append(words[:0], stream[i]...)
				}
			case 1: // drop
				continue
			case 2: // duplicate
				feed("duplicate", words)
			case 3: // corrupt a word
				k := r.Intn(len(words))
				if r.Intn(2) == 0 {
					words[k] ^= 1 << uint(r.Intn(32))
				} else {
					words[k] = uint32(r.Uint64())
				}
			case 4: // truncate or extend
				if r.Intn(2) == 0 {
					words = words[:r.Intn(len(words)+1)]
				} else {
					words = append(words, uint32(r.Uint64()))
				}
			}
			feed(fmt.Sprintf("round %d frame %d", round, i), words)
		}
	}
	for _, what := range []string{"bad frame", "misrouted", "fragment dropped", "fragment kept", "bad message", "message"} {
		if kinds[what] == 0 {
			t.Errorf("no frame was a %q; the stream covers too little", what)
		}
	}
	t.Logf("outcomes: %v", kinds)
}

// callPayload is the payload a node sends for seed, as bytes.
func callPayload(seed uint32, bytes int) []byte {
	p := make([]byte, bytes)
	for i := range p {
		p[i] = patternByte(seed, i)
	}
	return p
}

// captureMedium keeps every packet the DEQNA transmits.
type captureMedium struct{ sent [][]uint32 }

func (c *captureMedium) Transmit(pkt qbus.Packet, done func(ok bool)) {
	c.sent = append(c.sent, pkt.Words)
	done(true)
}

// TestWriterMatchesPackFrames: for random kinds, IDs, procs and payload
// lengths up to MaxPayload, the node's writer leaves exactly the words
// of PackFrames(Marshal(msg)) in its transmit slots, a slot the ring
// reuses holding its last frame. Messages that fit the ring are also
// carried out by the DEQNA, which must transmit exactly those frames.
func TestWriterMatchesPackFrames(t *testing.T) {
	med := &captureMedium{}
	n := NewNode(machine.New(machine.MicroVAXConfig(1)), 3, med, NodeConfig{})
	r := sim.NewRand(8)
	sizes := []int{0, 1, 4, 16, FragDataBytes - headerBytes, FragDataBytes - headerBytes + 1, 2*FragDataBytes - headerBytes, MaxPayload}
	for len(sizes) < 60 {
		sizes = append(sizes, r.Intn(MaxPayload+1))
	}
	for i, size := range sizes {
		d := desc{kind: MsgKind(1 + r.Intn(2)), id: uint32(r.Uint64()), proc: uint16(r.Uint64()), seed: uint32(r.Uint64()), bytes: size}
		dst := r.Intn(1 << 16)
		buf, err := (&Message{Kind: d.kind, ID: d.id, Proc: d.proc, Payload: callPayload(d.seed, d.bytes)}).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		want := PackFrames(dst, n.station, d.id, d.kind, buf)
		first := n.txSlot
		n.transmit(dst, d)
		last := map[int][]uint32{}
		for k, frame := range want {
			last[(first+k)%(slots/2)] = frame
		}
		for slot, frame := range last {
			phys, _ := n.slotAddr(slot)
			for k, w := range frame {
				if got := n.m.Memory().Peek(phys + mbus.Addr(4*k)); got != w {
					t.Fatalf("message %d (%d bytes): slot %d word %d = %#x, want %#x", i, size, slot, k, got, w)
				}
			}
		}
		if len(want) > slots/2 {
			// The ring has wrapped; the DEQNA would carry overwritten
			// frames. Start the next message on an idle controller.
			for n.eth.Busy() {
				n.m.Run(10_000)
			}
			med.sent = nil
			continue
		}
		for n.eth.Busy() {
			n.m.Run(10_000)
		}
		if len(med.sent) != len(want) {
			t.Fatalf("message %d (%d bytes): DEQNA sent %d frames, want %d", i, size, len(med.sent), len(want))
		}
		for k := range want {
			if !slices.Equal(med.sent[k], want[k]) {
				t.Fatalf("message %d (%d bytes): frame %d sent as %x, want %x", i, size, k, med.sent[k], want[k])
			}
		}
		med.sent = nil
	}
}
