package rpc

import "fmt"

// Wire format: each Ethernet frame is a 5-longword transport header
// followed by a fragment of the marshalled Message, bytes packed
// big-endian four to a longword.
//
//	w0  destination station (low 16) | source station (high 16)
//	w1  call ID
//	w2  message kind (high 8) | fragment count (bits 12-23) | index (low 12)
//	w3  fragment byte length
//	w4  total marshalled message bytes
const (
	frameHeaderWords = 5
	// MinFrameWords is the smallest well-formed transport frame: the
	// header alone. The cluster gives it to the Ethernet segments as
	// net.Config.MinFrameWords, which bounds how soon a freshly sent
	// frame can finish serializing and so sizes the windows over which
	// member machines may run ahead of the wire.
	MinFrameWords = frameHeaderWords
	// FragDataBytes is the largest fragment of message bytes per frame:
	// with the transport header it fills the DEQNA's 1516-byte frame.
	FragDataBytes = 1480
	maxFrags      = 1 << 12
)

// patternByte is byte i of the deterministic payload of seed, the only
// payload the node sends: a call's seed is its ID, a reply's its ID with
// 0xabcd mixed in.
func patternByte(seed uint32, i int) byte { return byte((i + int(seed)) * 31) }

// msgBytes is a marshalled message as the frame encoder reads it: the
// stored bytes, followed by n bytes of the pattern of seed.
type msgBytes struct {
	stored []byte
	seed   uint32
	n      int
}

func (b *msgBytes) len() int { return len(b.stored) + b.n }

func (b *msgBytes) at(j int) byte {
	if j < len(b.stored) {
		return b.stored[j]
	}
	return patternByte(b.seed, j-len(b.stored))
}

// word packs bytes j..j+3 big-endian, zero past hi.
func (b *msgBytes) word(j, hi int) uint32 {
	var w uint32
	for i := j; i < j+4; i++ {
		w <<= 8
		if i < hi {
			w |= uint32(b.at(i))
		}
	}
	return w
}

// frameEnc encodes one marshalled message as wire frames. PackFrames and
// the node's transmit path both run it.
type frameEnc struct {
	dst, src int
	id       uint32
	kind     MsgKind
	msg      msgBytes
}

// count returns the message's fragment count.
func (e *frameEnc) count() int {
	count := max(1, (e.msg.len()+FragDataBytes-1)/FragDataBytes)
	if count >= maxFrags {
		panic(fmt.Sprintf("rpc: message of %d bytes needs %d fragments", e.msg.len(), count))
	}
	return count
}

// span returns the message bytes [lo, hi) fragment i carries.
func (e *frameEnc) span(i int) (lo, hi int) {
	lo = i * FragDataBytes
	return lo, min(lo+FragDataBytes, e.msg.len())
}

// frameWords returns the length of fragment i's frame in words.
func (e *frameEnc) frameWords(i int) int {
	lo, hi := e.span(i)
	return frameHeaderWords + (hi-lo+3)/4
}

// writeFrame passes word k of fragment i's frame to put, for every k in
// order.
func (e *frameEnc) writeFrame(i int, put func(k int, w uint32)) {
	count := e.count()
	lo, hi := e.span(i)
	put(0, uint32(e.dst&0xffff)|uint32(e.src&0xffff)<<16)
	put(1, e.id)
	put(2, uint32(e.kind)<<24|uint32(count)<<12|uint32(i))
	put(3, uint32(hi-lo))
	put(4, uint32(e.msg.len()))
	k := frameHeaderWords
	for j := lo; j < hi; j += 4 {
		put(k, e.msg.word(j, hi))
		k++
	}
}

// PackFrames splits a marshalled message into wire frames.
func PackFrames(dst, src int, id uint32, kind MsgKind, buf []byte) [][]uint32 {
	enc := frameEnc{dst: dst, src: src, id: id, kind: kind, msg: msgBytes{stored: buf}}
	frames := make([][]uint32, enc.count())
	for i := range frames {
		frame := make([]uint32, enc.frameWords(i))
		enc.writeFrame(i, func(k int, w uint32) { frame[k] = w })
		frames[i] = frame
	}
	return frames
}

// FrameDst extracts the destination station from a frame (the cluster's
// medium adapter routes on it, like a DEQNA matching the MAC address).
func FrameDst(words []uint32) int {
	if len(words) == 0 {
		return -1
	}
	return int(words[0] & 0xffff)
}

// fragHeader is a parsed transport header.
type fragHeader struct {
	src, dst     int
	id           uint32
	kind         MsgKind
	index, count int
	bytes        int // fragment data bytes
	total        int
}

// parseHeader validates the transport header hw of a frame nwords long
// and decodes it; hw is not read when the frame is shorter than a
// header. Malformed frames error; they must never panic (the wire is
// untrusted). It is the parser the node runs on frames in its receive
// slots.
func parseHeader(hw *[frameHeaderWords]uint32, nwords int) (fragHeader, error) {
	if nwords < frameHeaderWords {
		return fragHeader{}, fmt.Errorf("rpc: short frame (%d words)", nwords)
	}
	f := fragHeader{
		dst:   int(hw[0] & 0xffff),
		src:   int(hw[0] >> 16),
		id:    hw[1],
		kind:  MsgKind(hw[2] >> 24),
		count: int(hw[2] >> 12 & 0xfff),
		index: int(hw[2] & 0xfff),
		bytes: int(hw[3]),
		total: int(hw[4]),
	}
	switch {
	case f.count < 1:
		return fragHeader{}, fmt.Errorf("rpc: frame with zero fragment count")
	case f.index >= f.count:
		return fragHeader{}, fmt.Errorf("rpc: fragment %d of %d", f.index, f.count)
	case f.bytes > FragDataBytes:
		return fragHeader{}, fmt.Errorf("rpc: fragment of %d bytes exceeds %d", f.bytes, FragDataBytes)
	case f.total > headerBytes+MaxPayload:
		return fragHeader{}, fmt.Errorf("rpc: message of %d bytes exceeds maximum", f.total)
	case nwords != frameHeaderWords+(f.bytes+3)/4:
		return fragHeader{}, fmt.Errorf("rpc: frame length %d does not match %d data bytes",
			nwords, f.bytes)
	}
	return f, nil
}

// dataByte is byte i of a frame's data, read from its data words.
func dataByte(w uint32, i int) byte { return byte(w >> (24 - 8*uint(i%4))) }
