package link

import (
	"testing"

	"tseries/internal/sim"
)

// nackEvery flips the first bit of every k-th transmission attempt. A
// single-bit error always changes the CRC, so the receiver nacks it and
// the sender retransmits the same frame.
type nackEvery struct {
	k, n int
}

func (inj *nackEvery) Corrupt(sublink string, n int) []int {
	inj.n++
	if inj.n%inj.k != 0 {
		return nil
	}
	return []int{0}
}

func benchSend(b *testing.B, size int, inj Injector) {
	k := sim.NewKernel()
	a, dst := pair(k)
	if inj != nil {
		a.SetInjector(inj)
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	b.ReportAllocs()
	b.SetBytes(int64(size))
	b.ResetTimer()
	k.Go("tx", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if err := a.Sublink(0).Send(p, payload); err != nil {
				b.Error(err)
				return
			}
		}
	})
	k.Go("rx", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			dst.Sublink(0).Recv(p)
		}
	})
	k.Run(0)
}

func BenchmarkSendClean(b *testing.B) { benchSend(b, 1024, nil) }
func BenchmarkSendRetry(b *testing.B) { benchSend(b, 1024, &nackEvery{k: 2}) }
func BenchmarkSendSmall(b *testing.B) { benchSend(b, 16, nil) }
