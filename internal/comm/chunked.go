package comm

import (
	"encoding/binary"
	"fmt"
	"sync"

	"tseries/internal/sim"
)

// Chunked transfers: a long message sent as one DMA occupies every link
// of its e-cube path for the whole wire time, so an h-hop transfer costs
// h × (wire time). Splitting it into chunks lets hop h+1 forward chunk i
// while hop h carries chunk i+1 — the software analogue of cut-through —
// at the price of one extra DMA startup and chunk header per chunk.
// (The module snapshot thread uses the same technique.)

// chunk header: seq (uint32) | total (uint32).
const chunkHeaderBytes = 8

// chunkPool recycles the header+payload staging buffer of SendChunked.
// Send copies the bytes it is given into a fresh wire frame before any
// link sees them, so one scratch buffer can serve every chunk of a
// transfer and then be recycled across transfers and kernels. The link
// layer itself does not copy: it hands that frame over.
var chunkPool = sync.Pool{New: func() any { return new([]byte) }}

// SendChunked delivers payload to dst under tag, split into pieces of at
// most chunkSize bytes. The receiver must use RecvChunked with the same
// tag. Chunks of one transfer must not interleave with another chunked
// transfer using the same (src, dst, tag).
func (e *Endpoint) SendChunked(p *sim.Proc, dst, tag int, payload []byte, chunkSize int) error {
	if chunkSize <= 0 {
		return fmt.Errorf("comm: chunk size must be positive")
	}
	total := (len(payload) + chunkSize - 1) / chunkSize
	if total == 0 {
		total = 1
	}
	bp := chunkPool.Get().(*[]byte)
	defer chunkPool.Put(bp)
	if max := chunkHeaderBytes + chunkSize; cap(*bp) < max {
		*bp = make([]byte, max)
	}
	for seq := 0; seq < total; seq++ {
		lo := seq * chunkSize
		hi := lo + chunkSize
		if hi > len(payload) {
			hi = len(payload)
		}
		buf := (*bp)[:chunkHeaderBytes+hi-lo]
		binary.LittleEndian.PutUint32(buf[0:], uint32(seq))
		binary.LittleEndian.PutUint32(buf[4:], uint32(total))
		copy(buf[chunkHeaderBytes:], payload[lo:hi])
		if err := e.Send(p, dst, tag, buf); err != nil {
			return err
		}
	}
	return nil
}

// RecvChunked reassembles one chunked transfer.
func (e *Endpoint) RecvChunked(p *sim.Proc, tag int) (src int, payload []byte, err error) {
	var parts [][]byte
	want := -1
	got := 0
	for want == -1 || got < want {
		s, raw := e.Recv(p, tag)
		if len(raw) < chunkHeaderBytes {
			return 0, nil, fmt.Errorf("comm: short chunk on tag %d", tag)
		}
		seq := int(binary.LittleEndian.Uint32(raw[0:]))
		total := int(binary.LittleEndian.Uint32(raw[4:]))
		if want == -1 {
			want = total
			parts = make([][]byte, total)
			src = s
		}
		if s != src || total != want || seq < 0 || seq >= want || parts[seq] != nil {
			return 0, nil, fmt.Errorf("comm: inconsistent chunk stream on tag %d", tag)
		}
		parts[seq] = raw[chunkHeaderBytes:]
		got++
	}
	size := 0
	for _, part := range parts {
		size += len(part)
	}
	payload = make([]byte, 0, size)
	for _, part := range parts {
		payload = append(payload, part...)
	}
	return src, payload, nil
}
