// Package rpc models Topaz remote procedure call (§4.1): the uniform
// communication mechanism of the Firefly world. It has three parts: the
// wire format (a marshalled message, fragmented into transport frames);
// an analytic transport pipeline — client marshal, Ethernet
// transmission, server processing, reply — whose stage costs are
// calibrated to the MicroVAX Firefly; and Node, the runtime that carries
// real calls between simulated machines. A Node writes each message
// from its description straight into the transmit slots its DEQNA sends
// from, and parses each received frame in place in its receive slot;
// Marshal, Unmarshal and PackFrames wrap the same encoder and decoder.
// The headline reproduction target is §6: "our RPC data transfer
// protocol, with multiple outstanding calls, achieves very high
// performance. The remote server can sustain a bandwidth of 4.6 megabits
// per second using an average of three concurrent threads."
package rpc

import (
	"encoding/binary"
	"fmt"
)

// MsgKind distinguishes calls from replies.
type MsgKind uint8

const (
	// Call is a request message.
	Call MsgKind = 1
	// Reply is a response message.
	Reply MsgKind = 2
)

// Message is one RPC packet.
type Message struct {
	Kind MsgKind
	// ID matches replies to calls.
	ID uint32
	// Proc is the remote procedure number.
	Proc uint16
	// Payload is the argument or result data.
	Payload []byte
}

// headerBytes is the marshalled header size.
const headerBytes = 1 + 4 + 2 + 4 // kind, id, proc, payload length

// MaxPayload bounds a single message (the transfer protocol fragments
// larger data).
const MaxPayload = 1 << 16

// Marshal encodes the message: the header, then the payload.
func (m *Message) Marshal() ([]byte, error) {
	if err := checkMessage(m.Kind, len(m.Payload)); err != nil {
		return nil, err
	}
	buf := make([]byte, headerBytes+len(m.Payload))
	putHeader(buf, m.Kind, m.ID, m.Proc, len(m.Payload))
	copy(buf[headerBytes:], m.Payload)
	return buf, nil
}

// checkMessage rejects what Marshal cannot encode.
func checkMessage(kind MsgKind, payloadBytes int) error {
	if kind != Call && kind != Reply {
		return fmt.Errorf("rpc: bad message kind %d", kind)
	}
	if payloadBytes > MaxPayload {
		return fmt.Errorf("rpc: payload %d exceeds %d", payloadBytes, MaxPayload)
	}
	return nil
}

// putHeader writes a marshalled message header into b[:headerBytes].
func putHeader(b []byte, kind MsgKind, id uint32, proc uint16, payloadBytes int) {
	b[0] = byte(kind)
	binary.BigEndian.PutUint32(b[1:], id)
	binary.BigEndian.PutUint16(b[5:], proc)
	binary.BigEndian.PutUint32(b[7:], uint32(payloadBytes))
}

// header is a decoded message header.
type header struct {
	kind MsgKind
	id   uint32
	proc uint16
}

// decode validates a marshalled message and returns its header and its
// payload, which aliases buf. It is the decoder both Unmarshal and the
// node's receive path run.
func decode(buf []byte) (header, []byte, error) {
	if len(buf) < headerBytes {
		return header{}, nil, fmt.Errorf("rpc: short message (%d bytes)", len(buf))
	}
	h := header{
		kind: MsgKind(buf[0]),
		id:   binary.BigEndian.Uint32(buf[1:]),
		proc: binary.BigEndian.Uint16(buf[5:]),
	}
	if h.kind != Call && h.kind != Reply {
		return header{}, nil, fmt.Errorf("rpc: bad message kind %d", h.kind)
	}
	n := binary.BigEndian.Uint32(buf[7:])
	if n > MaxPayload {
		return header{}, nil, fmt.Errorf("rpc: payload length %d exceeds %d", n, MaxPayload)
	}
	if len(buf) != headerBytes+int(n) {
		return header{}, nil, fmt.Errorf("rpc: length mismatch: header says %d, have %d", n, len(buf)-headerBytes)
	}
	return h, buf[headerBytes:], nil
}

// Unmarshal decodes a message into a copy of its bytes.
func Unmarshal(buf []byte) (*Message, error) {
	h, payload, err := decode(buf)
	if err != nil {
		return nil, err
	}
	return &Message{Kind: h.kind, ID: h.id, Proc: h.proc, Payload: append([]byte(nil), payload...)}, nil
}

// WireBits returns the message's size on the Ethernet in bits, including
// per-fragment framing overhead (Ethernet header + RPC transport header,
// ~46 bytes per 1500-byte fragment).
func (m *Message) WireBits() uint64 {
	total := headerBytes + len(m.Payload)
	frags := (total + 1499) / 1500
	if frags == 0 {
		frags = 1
	}
	return uint64(total+46*frags) * 8
}
