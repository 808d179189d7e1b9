package link

import (
	"bytes"
	"errors"
	"testing"

	"tseries/internal/sim"
)

// pair builds two connected physical links (sublink 0 of each wired
// together) for a test.
func pair(k *sim.Kernel) (*Link, *Link) {
	a := NewLink(k, "a/link0")
	b := NewLink(k, "b/link0")
	if err := Connect(a.Sublink(0), b.Sublink(0)); err != nil {
		panic(err)
	}
	return a, b
}

// transferOne sends frame once from a to b as a wire-byte frame, with
// a's outbound wire under inj (nil for none), and returns what b
// received. staged puts the two links on different shards of a
// ShardGroup, wired as a cross-shard pair; otherwise they share one
// kernel.
func transferOne(t *testing.T, staged bool, inj Injector, frame []byte, wire int) (got []byte, a *Link) {
	t.Helper()
	var b *Link
	var ka, kb *sim.Kernel
	var run func()
	if staged {
		g := sim.NewShardGroup(2)
		ka, kb = g.Shard(0), g.Shard(1)
		a, b = NewLink(ka, "a/link0"), NewLink(kb, "b/link0")
		ab := g.ConnectInto(0, 1, Lookahead, b.Sublink(0).Inbox())
		ba := g.ConnectInto(1, 0, Lookahead, a.Sublink(0).Inbox())
		if err := ConnectStaged(a.Sublink(0), b.Sublink(0), ab, ba); err != nil {
			t.Fatal(err)
		}
		run = func() { g.Run(0) }
	} else {
		ka = sim.NewKernel()
		kb = ka
		a, b = pair(ka)
		run = func() { ka.Run(0) }
	}
	if inj != nil {
		a.SetInjector(inj)
	}
	ka.Go("tx", func(p *sim.Proc) {
		if err := a.Sublink(0).SendWire(p, frame, wire); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	kb.Go("rx", func(p *sim.Proc) { got = b.Sublink(0).Recv(p) })
	run()
	return got, a
}

func TestEffectiveBandwidth(t *testing.T) {
	// Paper: "maximum unidirectional bandwidth of over 0.5 MB/s per link".
	bw := EffectiveBandwidth() / 1e6
	if bw <= 0.5 || bw >= 0.65 {
		t.Fatalf("link bandwidth = %.4f MB/s, want just over 0.5", bw)
	}
	// Four links: "over 4 MB/s" total (both directions).
	total := 4 * 2 * bw
	if total <= 4 {
		t.Fatalf("aggregate = %.2f MB/s, want > 4", total)
	}
}

func TestSendRecv(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(k)
	payload := []byte("hello hypercube")
	var got []byte
	var sendDone, recvDone sim.Time
	k.Go("tx", func(p *sim.Proc) {
		if err := a.Sublink(0).Send(p, payload); err != nil {
			t.Errorf("send: %v", err)
		}
		sendDone = p.Now()
	})
	k.Go("rx", func(p *sim.Proc) {
		got = b.Sublink(0).Recv(p)
		recvDone = p.Now()
	})
	k.Run(0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("got %q", got)
	}
	want := sim.Time(TransferTime(len(payload)))
	if sendDone != want || recvDone != want {
		t.Fatalf("send/recv done at %v/%v, want %v", sendDone, recvDone, want)
	}
}

func TestDMAStartupDominatesSmallTransfers(t *testing.T) {
	// A 1-byte message costs ~5µs startup + 1.7µs wire.
	d := TransferTime(1)
	if d < 6*sim.Microsecond || d > 7*sim.Microsecond {
		t.Fatalf("1-byte transfer = %v", d)
	}
	// The fixed cost is amortised at 64 KB.
	big := TransferTime(64 * 1024)
	perByte := big.Seconds() / (64 * 1024)
	if bw := 1 / perByte / 1e6; bw < 0.57 || bw > 0.58 {
		t.Fatalf("large-transfer bandwidth = %f MB/s", bw)
	}
}

func TestSublinksShareWire(t *testing.T) {
	// Two sublinks of the same physical link sending together take twice
	// as long as one: the multiplexing divides the bandwidth.
	k := sim.NewKernel()
	a := NewLink(k, "a/link0")
	b := NewLink(k, "b/link0")
	c := NewLink(k, "c/link0")
	if err := Connect(a.Sublink(0), b.Sublink(0)); err != nil {
		t.Fatal(err)
	}
	if err := Connect(a.Sublink(1), c.Sublink(0)); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1000)
	var done []sim.Time
	for i := 0; i < 2; i++ {
		sl := a.Sublink(i)
		k.Go("tx", func(p *sim.Proc) {
			if err := sl.Send(p, data); err != nil {
				t.Errorf("send: %v", err)
			}
			done = append(done, p.Now())
		})
	}
	k.Go("rx1", func(p *sim.Proc) { b.Sublink(0).Recv(p) })
	k.Go("rx2", func(p *sim.Proc) { c.Sublink(0).Recv(p) })
	k.Run(0)
	one := sim.Time(TransferTime(1000))
	if done[0] != one || done[1] != 2*one {
		t.Fatalf("done = %v, want %v and %v", done, one, 2*one)
	}
}

func TestSeparateLinksRunInParallel(t *testing.T) {
	k := sim.NewKernel()
	a0 := NewLink(k, "a/link0")
	a1 := NewLink(k, "a/link1")
	b0 := NewLink(k, "b/link0")
	b1 := NewLink(k, "b/link1")
	if err := Connect(a0.Sublink(0), b0.Sublink(0)); err != nil {
		t.Fatal(err)
	}
	if err := Connect(a1.Sublink(0), b1.Sublink(0)); err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 1000)
	for _, l := range []*Link{a0, a1} {
		sl := l.Sublink(0)
		k.Go("tx", func(p *sim.Proc) {
			if err := sl.Send(p, data); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	}
	k.Go("rx1", func(p *sim.Proc) { b0.Sublink(0).Recv(p) })
	k.Go("rx2", func(p *sim.Proc) { b1.Sublink(0).Recv(p) })
	end := k.Run(0)
	if end != sim.Time(TransferTime(1000)) {
		t.Fatalf("parallel links took %v, want %v", end, TransferTime(1000))
	}
}

func TestBidirectional(t *testing.T) {
	// The two directions of a connected sublink pair are independent
	// wires: simultaneous sends in both directions fully overlap.
	k := sim.NewKernel()
	a, b := pair(k)
	data := make([]byte, 2000)
	k.Go("a→b", func(p *sim.Proc) {
		if err := a.Sublink(0).Send(p, data); err != nil {
			t.Errorf("a: %v", err)
		}
	})
	k.Go("b→a", func(p *sim.Proc) {
		if err := b.Sublink(0).Send(p, data); err != nil {
			t.Errorf("b: %v", err)
		}
	})
	k.Go("rxa", func(p *sim.Proc) { a.Sublink(0).Recv(p) })
	k.Go("rxb", func(p *sim.Proc) { b.Sublink(0).Recv(p) })
	end := k.Run(0)
	if end != sim.Time(TransferTime(2000)) {
		t.Fatalf("bidirectional took %v, want %v", end, TransferTime(2000))
	}
}

func TestErrors(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "lone")
	var errUnconnected, errEmpty error
	a, b := pair(k)
	_ = b
	k.Go("p", func(p *sim.Proc) {
		errUnconnected = l.Sublink(0).Send(p, []byte{1})
		errEmpty = a.Sublink(0).Send(p, nil)
	})
	k.Run(0)
	if !errors.Is(errUnconnected, ErrNotConnected) {
		t.Fatalf("unconnected send: got %v, want ErrNotConnected", errUnconnected)
	}
	if !errors.Is(errEmpty, ErrEmptyFrame) {
		t.Fatalf("empty send: got %v, want ErrEmptyFrame", errEmpty)
	}
	if err := Connect(a.Sublink(0), l.Sublink(0)); err == nil {
		t.Fatal("double connect accepted")
	}
}

func TestMessageOrderPreserved(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(k)
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := a.Sublink(0).Send(p, []byte{byte(i)}); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	var got []byte
	k.Go("rx", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			got = append(got, b.Sublink(0).Recv(p)[0])
		}
	})
	k.Run(0)
	for i := 0; i < 10; i++ {
		if got[i] != byte(i) {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestSendHandsOverFrame(t *testing.T) {
	// Send takes ownership: the receiver gets the sender's backing
	// array, on a local wire and through a cross-shard edge alike.
	for _, staged := range []bool{false, true} {
		buf := []byte("frame handed over by reference")
		got, _ := transferOne(t, staged, nil, buf, len(buf))
		if len(got) != len(buf) || &got[0] != &buf[0] {
			t.Fatalf("staged=%v: receiver got a different array than the sender sent", staged)
		}
	}
}

// lenRecorder records the frame lengths the injector is shown.
type lenRecorder struct{ ns []int }

func (r *lenRecorder) Corrupt(sublink string, n int) []int {
	r.ns = append(r.ns, n)
	return nil
}

func TestSendWireChargesWireLength(t *testing.T) {
	// A frame carrying 10 of its 1000 wire bytes costs the dense frame's
	// wire time and counts, shows the injector 1000 bytes, and hands the
	// receiver the sender's 10-byte array.
	k := sim.NewKernel()
	a, b := pair(k)
	inj := &lenRecorder{}
	a.SetInjector(inj)
	buf := []byte("ten bytes!")
	var got []byte
	var done sim.Time
	var errs []error
	k.Go("tx", func(p *sim.Proc) {
		if err := a.Sublink(0).SendWire(p, buf, 1000); err != nil {
			t.Errorf("send: %v", err)
		}
		done = p.Now()
		errs = append(errs,
			a.Sublink(0).SendWire(p, nil, 0),
			a.Sublink(0).SendWire(p, buf, len(buf)-1))
	})
	k.Go("rx", func(p *sim.Proc) { got = b.Sublink(0).Recv(p) })
	k.Run(0)
	if len(got) != len(buf) || &got[0] != &buf[0] {
		t.Fatal("receiver got a different array than the sender sent")
	}
	if want := sim.Time(TransferTime(1000)); done != want {
		t.Fatalf("send done at %v, want %v", done, want)
	}
	if a.BytesSent != 1000 || a.Transfers != 1 || k.Stats().Counters["link.bytes"] != 1000 {
		t.Fatalf("bytes=%d transfers=%d link.bytes=%d, want 1000/1/1000",
			a.BytesSent, a.Transfers, k.Stats().Counters["link.bytes"])
	}
	if len(inj.ns) != 1 || inj.ns[0] != 1000 {
		t.Fatalf("injector saw frame lengths %v, want [1000]", inj.ns)
	}
	if !errors.Is(errs[0], ErrEmptyFrame) {
		t.Fatalf("zero wire length: got %v, want ErrEmptyFrame", errs[0])
	}
	if errs[1] == nil {
		t.Fatal("a frame longer than its wire length was sent")
	}
}

func TestCountersAndUtilization(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(k)
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			if err := a.Sublink(0).Send(p, make([]byte, 100)); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	k.Go("rx", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			b.Sublink(0).Recv(p)
		}
	})
	k.Run(0)
	if a.Transfers != 3 || a.BytesSent != 300 {
		t.Fatalf("counters: %d transfers, %d bytes", a.Transfers, a.BytesSent)
	}
	if u := a.Wire().Utilization(); u <= 0.9 || u > 1.0 {
		t.Fatalf("wire utilization = %g (back-to-back sends should keep it busy)", u)
	}
	if b.Transfers != 0 {
		t.Fatal("receiver transferred nothing yet its counter moved")
	}
}

func TestPeerAndConnected(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(k)
	if !a.Sublink(0).Connected() || a.Sublink(0).Peer() != b.Sublink(0) {
		t.Fatal("peer wiring wrong")
	}
	if a.Sublink(1).Connected() {
		t.Fatal("unconnected sublink claims a peer")
	}
	if got := a.Sublink(2).Name(); got != "a/link0/sub2" {
		t.Fatalf("name = %q", got)
	}
}

func TestTryRecvAndReady(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(k)
	if _, ok := b.Sublink(0).TryRecv(); ok {
		t.Fatal("TryRecv on empty inbox succeeded")
	}
	k.Go("tx", func(p *sim.Proc) {
		if err := a.Sublink(0).Send(p, []byte{9}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	k.Run(0)
	if !b.Sublink(0).Ready() {
		t.Fatal("inbox should be ready")
	}
	if msg, ok := b.Sublink(0).TryRecv(); !ok || msg[0] != 9 {
		t.Fatalf("TryRecv = %v %v", msg, ok)
	}
}
