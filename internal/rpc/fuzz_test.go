package rpc

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzMessage feeds arbitrary bytes to the message decoder and, when
// they decode, demands a lossless round trip. The wire is untrusted:
// truncated headers, oversized length fields, and garbage kinds must
// come back as errors — never a panic, never a silently wrong message.
func FuzzMessage(f *testing.F) {
	for _, buf := range messageSeeds(f) {
		f.Add(buf)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data) // must never panic
		if err != nil {
			return
		}
		// Structural guarantees of a successful decode.
		if m.Kind != Call && m.Kind != Reply {
			t.Fatalf("decoded invalid kind %d", m.Kind)
		}
		if len(m.Payload) > MaxPayload {
			t.Fatalf("decoded payload of %d bytes above MaxPayload", len(m.Payload))
		}
		if len(data) != headerBytes+len(m.Payload) {
			t.Fatalf("decoded %d payload bytes from a %d-byte message", len(m.Payload), len(data))
		}
		// Round trip: re-marshal must reproduce the input exactly.
		out, err := m.Marshal()
		if err != nil {
			t.Fatalf("re-marshal of a decoded message failed: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("round trip diverged:\n in  %x\n out %x", data, out)
		}
		// And the decoded message must survive fragmentation: pack into
		// wire frames, parse each, and reassemble the identical bytes.
		frames := PackFrames(1, 0, m.ID, m.Kind, data)
		var rebuilt []byte
		for i, w := range frames {
			fr, frData, err := parseFrag(w)
			if err != nil {
				t.Fatalf("fragment %d failed to parse: %v", i, err)
			}
			if fr.index != i || fr.count != len(frames) || fr.total != len(data) {
				t.Fatalf("fragment %d mislabeled: index %d count %d total %d",
					i, fr.index, fr.count, fr.total)
			}
			rebuilt = append(rebuilt, frData...)
		}
		if !bytes.Equal(rebuilt, data) {
			t.Fatal("fragmentation round trip diverged")
		}
	})
}

// FuzzFrame feeds arbitrary words to the transport frame parser: every
// outcome must be a parsed fragment or an error, never a panic, and the
// data length must agree with the frame's own length field.
func FuzzFrame(f *testing.F) {
	for _, words := range frameSeeds(f) {
		buf := make([]byte, 4*len(words))
		for i, w := range words {
			binary.BigEndian.PutUint32(buf[i*4:], w)
		}
		f.Add(buf)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		words := make([]uint32, len(data)/4)
		for i := range words {
			words[i] = binary.BigEndian.Uint32(data[i*4:])
		}
		fr, data, err := parseFrag(words) // must never panic
		if err != nil {
			return
		}
		if len(data) > FragDataBytes {
			t.Fatalf("parsed fragment of %d bytes above FragDataBytes", len(data))
		}
		if fr.index >= fr.count {
			t.Fatalf("parsed fragment %d of %d", fr.index, fr.count)
		}
	})
}

// messageSeeds is FuzzMessage's seed corpus: valid messages of both
// kinds, plus the interesting malformed shapes.
func messageSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, m := range []*Message{
		{Kind: Call, ID: 1, Proc: 7, Payload: []byte("hello")},
		{Kind: Reply, ID: 0xffffffff, Proc: 0, Payload: nil},
		{Kind: Call, ID: 42, Proc: 0xffff, Payload: make([]byte, 1480)},
	} {
		buf, err := m.Marshal()
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf)
	}
	long := make([]byte, headerBytes+4)
	long[0] = byte(Reply)
	binary.BigEndian.PutUint32(long[7:], 2) // header says 2, carries 4
	return append(seeds,
		[]byte{},                                // empty
		[]byte{byte(Call), 0, 0, 0, 1, 0, 7},    // truncated header
		[]byte{3, 0, 0, 0, 1, 0, 7, 0, 0, 0, 0}, // bad kind
		[]byte{byte(Call), 0, 0, 0, 1, 0, 7, 0xff, // oversized length field
			0xff, 0xff, 0xff},
		long,
	)
}

// frameSeeds is FuzzFrame's seed corpus.
func frameSeeds(testing.TB) [][]uint32 {
	return [][]uint32{
		PackFrames(1, 0, 7, Call, []byte("payload bytes"))[0],
		{1, 2, 3},                               // short frame
		{1, 7, 1 << 12, 0xffffffff, 0xffffffff}, // oversized lengths
	}
}

// parseFrag parses a frame held in words with the node's header parser
// and copies out its data bytes.
func parseFrag(words []uint32) (fragHeader, []byte, error) {
	var hw [frameHeaderWords]uint32
	copy(hw[:], words)
	f, err := parseHeader(&hw, len(words))
	if err != nil {
		return fragHeader{}, nil, err
	}
	data := make([]byte, f.bytes)
	for i := range data {
		data[i] = dataByte(words[frameHeaderWords+i/4], i)
	}
	return f, data, nil
}
