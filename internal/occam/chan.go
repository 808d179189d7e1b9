package occam

import (
	"encoding/binary"
	"fmt"

	"tseries/internal/fparith"
	"tseries/internal/link"
	"tseries/internal/sim"
)

// Channel is an Occam channel endpoint. Internal channels are rendezvous
// objects between processes on one node; link channels map channel
// operations to a sublink, so `c ! x` on one node pairs with `c ? y` on
// the neighbor — the language-level view of the hardware links.
type Channel interface {
	send(p *sim.Proc, v interface{}) error
	recv(p *sim.Proc) (interface{}, error)
	// altChan exposes the sim channel that carries incoming values (for
	// ALT) together with a decoder for its raw element type.
	altChan() *sim.Chan
	decode(raw interface{}) (interface{}, error)
}

// RecvValue receives one value from an Occam channel on behalf of host
// code (drivers, collectors in examples and tests).
func RecvValue(p *sim.Proc, ch Channel) (interface{}, error) { return ch.recv(p) }

// internalChan is a same-node rendezvous channel.
type internalChan struct{ ch *sim.Chan }

// NewInternalChan creates an Occam channel local to one node.
func NewInternalChan(k *sim.Kernel, name string) Channel {
	return &internalChan{ch: sim.NewChan(k, name, 0)}
}

// WrapChan adapts an existing sim channel.
func WrapChan(ch *sim.Chan) Channel { return &internalChan{ch: ch} }

func (c *internalChan) send(p *sim.Proc, v interface{}) error {
	c.ch.Send(p, v)
	return nil
}
func (c *internalChan) recv(p *sim.Proc) (interface{}, error) {
	return c.ch.Recv(p), nil
}
func (c *internalChan) altChan() *sim.Chan { return c.ch }
func (c *internalChan) decode(raw interface{}) (interface{}, error) {
	return raw, nil
}

// linkChan carries Occam values over a sublink with a one-byte type tag
// plus a little-endian payload.
type linkChan struct{ sl *link.Sublink }

// WrapSublink binds an Occam channel name to a hardware sublink.
func WrapSublink(sl *link.Sublink) Channel { return &linkChan{sl: sl} }

const (
	wireInt     = 1
	wireReal    = 2
	wireBool    = 3
	wireIntArr  = 4
	wireRealArr = 5
)

func (c *linkChan) send(p *sim.Proc, v interface{}) error {
	var buf []byte
	switch x := v.(type) {
	case int32:
		buf = make([]byte, 5)
		buf[0] = wireInt
		binary.LittleEndian.PutUint32(buf[1:], uint32(x))
	case fparith.F64:
		buf = make([]byte, 9)
		buf[0] = wireReal
		binary.LittleEndian.PutUint64(buf[1:], uint64(x))
	case bool:
		buf = []byte{wireBool, 0}
		if x {
			buf[1] = 1
		}
	case []int32:
		buf = make([]byte, 5+4*len(x))
		buf[0] = wireIntArr
		binary.LittleEndian.PutUint32(buf[1:], uint32(len(x)))
		for i, e := range x {
			binary.LittleEndian.PutUint32(buf[5+4*i:], uint32(e))
		}
	case []fparith.F64:
		buf = make([]byte, 5+8*len(x))
		buf[0] = wireRealArr
		binary.LittleEndian.PutUint32(buf[1:], uint32(len(x)))
		for i, e := range x {
			binary.LittleEndian.PutUint64(buf[5+8*i:], uint64(e))
		}
	default:
		return fmt.Errorf("occam: cannot send %T over a link channel", v)
	}
	return c.sl.Send(p, buf)
}

func (c *linkChan) recv(p *sim.Proc) (interface{}, error) {
	return decodeWire(c.sl.Recv(p))
}

func (c *linkChan) altChan() *sim.Chan { return c.sl.Inbox() }

func (c *linkChan) decode(raw interface{}) (interface{}, error) {
	msg, ok := raw.(link.Message)
	if !ok {
		return nil, fmt.Errorf("occam: unexpected %T on link channel", raw)
	}
	return decodeWire(msg.Data)
}

func decodeWire(b []byte) (interface{}, error) {
	if len(b) < 2 {
		return nil, fmt.Errorf("occam: short link message")
	}
	switch b[0] {
	case wireInt:
		return int32(binary.LittleEndian.Uint32(b[1:])), nil
	case wireReal:
		return fparith.F64(binary.LittleEndian.Uint64(b[1:])), nil
	case wireBool:
		return b[1] != 0, nil
	case wireIntArr:
		n := int(binary.LittleEndian.Uint32(b[1:]))
		if len(b) < 5+4*n {
			return nil, fmt.Errorf("occam: truncated INT array on link")
		}
		out := make([]int32, n)
		for i := range out {
			out[i] = int32(binary.LittleEndian.Uint32(b[5+4*i:]))
		}
		return out, nil
	case wireRealArr:
		n := int(binary.LittleEndian.Uint32(b[1:]))
		if len(b) < 5+8*n {
			return nil, fmt.Errorf("occam: truncated REAL64 array on link")
		}
		out := make([]fparith.F64, n)
		for i := range out {
			out[i] = fparith.F64(binary.LittleEndian.Uint64(b[5+8*i:]))
		}
		return out, nil
	}
	return nil, fmt.Errorf("occam: unknown wire tag %d", b[0])
}
