package link

import (
	"bytes"
	"testing"

	"tseries/internal/sim"
)

// corruptFirst damages the first n attempts on a sublink, then lets
// frames through clean.
type corruptFirst struct {
	n    int
	seen int
}

func (c *corruptFirst) Corrupt(sublink string, n int) []int {
	c.seen++
	if c.seen > c.n {
		return nil
	}
	return []int{7} // the top bit of byte 0
}

func TestConnectSelfAndDouble(t *testing.T) {
	k := sim.NewKernel()
	a := NewLink(k, "a/link0")
	b := NewLink(k, "b/link0")
	if err := Connect(a.Sublink(0), a.Sublink(0)); err == nil {
		t.Fatal("self-connect accepted")
	}
	if err := Connect(a.Sublink(0), b.Sublink(0)); err != nil {
		t.Fatal(err)
	}
	if err := Connect(a.Sublink(0), b.Sublink(1)); err == nil {
		t.Fatal("double connect of a accepted")
	}
	if err := Connect(a.Sublink(1), b.Sublink(0)); err == nil {
		t.Fatal("double connect of b accepted")
	}
}

func TestTryRecvOnDisconnected(t *testing.T) {
	k := sim.NewKernel()
	l := NewLink(k, "lone")
	s := l.Sublink(0)
	if s.Ready() {
		t.Fatal("disconnected sublink reports ready")
	}
	if _, ok := s.TryRecv(); ok {
		t.Fatal("TryRecv on a disconnected sublink returned a message")
	}
	if s.Up() {
		t.Fatal("disconnected sublink claims to be up")
	}
}

func TestRetransmitCorrectsCorruption(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(k)
	a.SetInjector(&corruptFirst{n: 2})
	payload := []byte("the frame must arrive intact")
	var got []byte
	var sendErr error
	k.Go("tx", func(p *sim.Proc) { sendErr = a.Sublink(0).Send(p, payload) })
	k.Go("rx", func(p *sim.Proc) { got = b.Sublink(0).Recv(p) })
	k.Run(0)
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("delivered %q", got)
	}
	if a.Corrupted != 2 || a.Retransmits != 2 || a.Undetected != 0 {
		t.Fatalf("counters: corrupted=%d retransmits=%d undetected=%d",
			a.Corrupted, a.Retransmits, a.Undetected)
	}
	if a.Transfers != 3 {
		t.Fatalf("transfers = %d, want 3 (two nacked + one clean)", a.Transfers)
	}
}

func TestPersistentNackNeverDropsFrame(t *testing.T) {
	// Nacks prove the peer is alive: even a long corruption burst must
	// not escalate to a DownError.
	k := sim.NewKernel()
	a, b := pair(k)
	a.SetInjector(&corruptFirst{n: 3 * MaxSendAttempts})
	var sendErr error
	k.Go("tx", func(p *sim.Proc) { sendErr = a.Sublink(0).Send(p, []byte{1, 2, 3}) })
	k.Go("rx", func(p *sim.Proc) { b.Sublink(0).Recv(p) })
	k.Run(0)
	if sendErr != nil {
		t.Fatalf("burst of nacks escalated: %v", sendErr)
	}
	if a.Drops != 0 || a.Timeouts != 0 {
		t.Fatalf("drops=%d timeouts=%d on a live wire", a.Drops, a.Timeouts)
	}
}

func TestOutageTimesOutThenDownError(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(k)
	b.Sublink(0).SetDown(true)
	if a.Sublink(0).Up() {
		t.Fatal("channel with a severed far end claims to be up")
	}
	var sendErr error
	var elapsed sim.Time
	k.Go("tx", func(p *sim.Proc) {
		sendErr = a.Sublink(0).Send(p, []byte{1})
		elapsed = p.Now()
	})
	k.Run(0)
	if !IsDown(sendErr) {
		t.Fatalf("got %v, want DownError", sendErr)
	}
	de := sendErr.(*DownError)
	if de.Attempts != MaxSendAttempts {
		t.Fatalf("gave up after %d attempts, want %d", de.Attempts, MaxSendAttempts)
	}
	if a.Timeouts != MaxSendAttempts || a.Drops != 1 {
		t.Fatalf("timeouts=%d drops=%d", a.Timeouts, a.Drops)
	}
	// Cost: MaxSendAttempts timed-out attempts plus the backoffs between them.
	want := sim.Duration(MaxSendAttempts) * (DMAStartup + AckTimeout)
	for n := 1; n < MaxSendAttempts; n++ {
		want += RetryBackoff(n)
	}
	if sim.Duration(elapsed) != want {
		t.Fatalf("outage detection took %v, want %v", sim.Duration(elapsed), want)
	}
	// Restore the far end: traffic flows again.
	b.Sublink(0).SetDown(false)
	var got []byte
	k.Go("tx2", func(p *sim.Proc) {
		if err := a.Sublink(0).Send(p, []byte{7}); err != nil {
			t.Errorf("send after repair: %v", err)
		}
	})
	k.Go("rx2", func(p *sim.Proc) { got = b.Sublink(0).Recv(p) })
	k.Run(0)
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("post-repair delivery: %v", got)
	}
}

func TestLinkSetDownSeversAllSublinks(t *testing.T) {
	k := sim.NewKernel()
	a, _ := pair(k)
	a.SetDown(true)
	for i := 0; i < SublinksPerLink; i++ {
		if !a.Sublink(i).Down() {
			t.Fatalf("sublink %d survived link SetDown", i)
		}
	}
	a.SetDown(false)
	if a.Sublink(0).Down() {
		t.Fatal("sublink still down after restore")
	}
}

func TestFlushDiscardsQueued(t *testing.T) {
	k := sim.NewKernel()
	a, b := pair(k)
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			if err := a.Sublink(0).Send(p, []byte{byte(i)}); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})
	k.Run(0)
	if n := b.Sublink(0).Flush(); n != 5 {
		t.Fatalf("flushed %d, want 5", n)
	}
	if b.Sublink(0).Ready() {
		t.Fatal("inbox still ready after flush")
	}
}
