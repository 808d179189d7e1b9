package module

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"tseries/internal/sim"
)

func TestDiskReadWrite(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	data := []byte("the quick brown fox")
	var got []byte
	var writeEnd, readEnd sim.Time
	k.Go("io", func(p *sim.Proc) {
		d.Write(p, "blk", data)
		writeEnd = p.Now()
		var err error
		got, err = d.Read(p, "blk")
		if err != nil {
			t.Errorf("read: %v", err)
		}
		readEnd = p.Now()
	})
	k.Run(0)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
	// Each op costs the 20 ms seek plus transfer.
	if writeEnd < sim.Time(20*sim.Millisecond) {
		t.Fatalf("write too fast: %v", writeEnd)
	}
	if readEnd.Sub(writeEnd) < 20*sim.Millisecond {
		t.Fatalf("read too fast: %v", readEnd.Sub(writeEnd))
	}
	if d.BytesWritten != int64(len(data)) || d.BytesRead != int64(len(data)) {
		t.Fatalf("counters: %d/%d", d.BytesWritten, d.BytesRead)
	}
}

func TestDiskRate(t *testing.T) {
	// Sustained transfer ≈ 1 MB/s after the seek.
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	const n = 1 << 20
	var elapsed sim.Duration
	k.Go("io", func(p *sim.Proc) {
		start := p.Now()
		d.Write(p, "big", make([]byte, n))
		elapsed = p.Now().Sub(start)
	})
	k.Run(0)
	secs := elapsed.Seconds()
	if secs < 1.0 || secs > 1.1 {
		t.Fatalf("1 MB write took %.3f s, want ≈1.02 (seek + 1 MB/s)", secs)
	}
}

func TestDiskDirectory(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	k.Go("io", func(p *sim.Proc) {
		d.Write(p, "a", []byte{1})
		d.Write(p, "b", []byte{2})
	})
	k.Run(0)
	if !d.Has("a") || d.Has("zzz") || d.Keys() != 2 {
		t.Fatal("directory wrong")
	}
	d.Delete("a")
	if d.Has("a") || d.Keys() != 1 {
		t.Fatal("delete failed")
	}
	var err error
	k.Go("io2", func(p *sim.Proc) { _, err = d.Read(p, "a") })
	k.Run(0)
	if err == nil {
		t.Fatal("read of deleted block succeeded")
	}
}

func TestDiskCorruptionDetected(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	k.Go("io", func(p *sim.Proc) {
		d.Write(p, "a", []byte("first block"))
		d.Write(p, "b", []byte("second block"))
	})
	k.Run(0)
	if !d.Verify("a") || !d.Verify("b") {
		t.Fatal("fresh blocks fail verification")
	}
	key := d.CorruptNth(0)
	if key != "a" {
		t.Fatalf("corrupted %q, want sorted-first block a", key)
	}
	if d.Verify("a") {
		t.Fatal("corrupted block passes verification")
	}
	var err error
	var got []byte
	k.Go("io2", func(p *sim.Proc) {
		_, err = d.Read(p, "a")
		got, _ = d.Read(p, "b")
	})
	k.Run(0)
	var ce *CorruptError
	if !errors.As(err, &ce) || ce.Key != "a" {
		t.Fatalf("read of rotted block: %v, want CorruptError on a", err)
	}
	if string(got) != "second block" {
		t.Fatalf("clean block damaged: %q", got)
	}
	if d.Corrupted < 2 { // one Verify miss + one Read miss
		t.Fatalf("Corrupted = %d", d.Corrupted)
	}
	// Rewriting the block heals it.
	k.Go("io3", func(p *sim.Proc) {
		d.Write(p, "a", []byte("fresh"))
		got, err = d.Read(p, "a")
	})
	k.Run(0)
	if err != nil || string(got) != "fresh" {
		t.Fatalf("rewrite did not heal: %v %q", err, got)
	}
}

func TestDiskCorruptNthEmpty(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	if key := d.CorruptNth(3); key != "" {
		t.Fatalf("empty disk corrupted %q", key)
	}
	if d.Verify("missing") {
		t.Fatal("missing block verified")
	}
}

// TestDiskCorruptNthHugeIndex: an index whose product with 131
// overflows int, like the fault plan disk=0.70409710030596392, still
// flips a bit inside the block, the one the unsigned product names,
// and flipping it again cancels it.
func TestDiskCorruptNthHugeIndex(t *testing.T) {
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	const size = 3*diskRowBytes + 5
	d.store("blk", []byte("payload"), size)
	repro := uint64(70409710030596392) // int(repro) keeps the low 32 bits on 386
	for _, n := range []int{int(repro), math.MaxInt, math.MaxInt/131 + 1, 16393180, math.MinInt, -1, 7} {
		if key := d.CorruptNth(n); key != "blk" {
			t.Fatalf("CorruptNth(%d) corrupted %q", n, key)
		}
		b := d.blocks["blk"]
		want := int(uint64(n)*131%size)*8 + int(uint64(n)%8)
		if len(b.flips) != 1 || b.flips[0] != want || d.Verify("blk") {
			t.Fatalf("CorruptNth(%d): ledger %v, want [%d] and a failed check", n, b.flips, want)
		}
		if n >= 0 && n <= math.MaxInt/131 && want != n*131%size*8+n%8 {
			t.Fatalf("CorruptNth(%d) moved from the position its int product names", n)
		}
		d.CorruptNth(n)
		if len(b.flips) != 0 || !d.Verify("blk") {
			t.Fatalf("CorruptNth(%d) twice: ledger %v, want empty and a passed check", n, b.flips)
		}
	}
}

func TestDiskIsolationFromCaller(t *testing.T) {
	// The disk copies on write and read: callers cannot alias its blocks.
	k := sim.NewKernel()
	d := NewDisk(k, "t")
	buf := []byte{1, 2, 3}
	var got []byte
	k.Go("io", func(p *sim.Proc) {
		d.Write(p, "x", buf)
		buf[0] = 99
		var err error
		got, err = d.Read(p, "x")
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got[1] = 88
		again, err := d.Read(p, "x")
		if err != nil {
			t.Errorf("read: %v", err)
		}
		if again[1] == 88 {
			t.Error("reader mutated the stored block")
		}
	})
	k.Run(0)
	if got[0] != 1 {
		t.Fatal("writer mutated the stored block")
	}
}

// TestDiskKeys pins the disk keys to the fmt forms they had: snapshot
// chunks and their ring backups keep their names on the platter, and
// every CorruptError text, which quotes the key, keeps its bytes.
func TestDiskKeys(t *testing.T) {
	for _, c := range []struct{ id, node, seq, mod int }{
		{0, 0, 0, 0},
		{1, 7, 15, 1},
		{9, 10, 99, 511},
		{123456, 3, 63, 4095},
		{-1, -20, -300, -4000},
		{math.MaxInt, math.MaxInt, math.MaxInt, math.MaxInt},
		{math.MinInt, math.MinInt, math.MinInt, math.MinInt},
	} {
		key := snapKey(c.id, c.node, c.seq)
		if want := fmt.Sprintf("snap%d/node%d/chunk%d", c.id, c.node, c.seq); key != want {
			t.Errorf("snapKey(%d, %d, %d) = %q, want %q", c.id, c.node, c.seq, key, want)
		}
		if got, want := backupKey(c.mod, key), fmt.Sprintf("backup/mod%d/%s", c.mod, key); got != want {
			t.Errorf("backupKey(%d, %q) = %q, want %q", c.mod, key, got, want)
		}
	}
}
