package sim

import (
	"container/heap"
	"runtime"
	"sync/atomic"
	"testing"
)

// boxedHeap is the seed implementation of the event queue — the stock
// container/heap driving an []event through interface{} — kept here as
// the baseline the specialized heap is benchmarked against.
type boxedHeap []event

func (h boxedHeap) Len() int { return len(h) }
func (h boxedHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// lcg is a tiny deterministic pseudorandom stream for benchmark schedules.
type lcg uint64

func (r *lcg) next() uint64 {
	*r = *r*6364136223846793005 + 1442695040888963407
	return uint64(*r >> 33)
}

// benchSpread mimics the simulator's scheduling profile: most events land
// within a few hundred cycles of now, with an occasional long timer.
func benchSpread(r *lcg) Time {
	d := Time(r.next()%4000) + 1
	if r.next()%64 == 0 {
		d += 1_000_000
	}
	return d
}

// BenchmarkEngineScheduleRun measures the full hot path — At + Step — at a
// steady queue depth of 1024 events, one event executed per iteration.
func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	r := lcg(1)
	nop := func() {}
	for i := 0; i < 1024; i++ {
		e.After(benchSpread(&r), nop)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(benchSpread(&r), nop)
		e.Step()
	}
}

// BenchmarkEngineTypedScheduleRun is the same workload on the closure-free
// fast path — AfterEvent + Step — that the per-cycle callers use. It must
// stay at 0 allocs/op. One untimed push+pop first grows the heap's backing
// array past the steady depth, so even -benchtime 1x reports no allocs.
func BenchmarkEngineTypedScheduleRun(b *testing.B) {
	e := NewEngine()
	r := lcg(1)
	nop := func(any) {}
	for i := 0; i < 1024; i++ {
		e.AfterEvent(benchSpread(&r), nop, nil)
	}
	e.AfterEvent(benchSpread(&r), nop, nil)
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterEvent(benchSpread(&r), nop, nil)
		e.Step()
	}
}

// BenchmarkEngineHeap measures push+pop on the specialized heap alone at a
// steady depth of 1024.
func BenchmarkEngineHeap(b *testing.B) {
	benchHeap(b, func(h *eventHeap, ev event) { h.push(ev) }, func(h *eventHeap) event { return h.pop() })
}

// BenchmarkEngineHeapBoxed is the identical workload on the seed
// container/heap implementation; the delta versus BenchmarkEngineHeap is
// the win of the specialized path (no interface boxing alloc on push, no
// dynamic dispatch).
func BenchmarkEngineHeapBoxed(b *testing.B) {
	benchHeap(b,
		func(h *boxedHeap, ev event) { heap.Push(h, ev) },
		func(h *boxedHeap) event { return heap.Pop(h).(event) })
}

func benchHeap[H any](b *testing.B, push func(*H, event), pop func(*H) event) {
	var h H
	r := lcg(1)
	var now Time
	var seq uint64
	for i := 0; i < 1024; i++ {
		seq++
		push(&h, event{at: now + benchSpread(&r), seq: seq})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq++
		push(&h, event{at: now + benchSpread(&r), seq: seq})
		now = pop(&h).at
	}
}

// BenchmarkEngineTickerChurn exercises the Ticker wake/sleep cycle that
// dominates idle periods in the device models.
func BenchmarkEngineTickerChurn(b *testing.B) {
	e := NewEngine()
	clk := NewClock(800)
	work := 0
	tk := NewTicker(e, clk, func() bool { work--; return work > 0 })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work = 4
		tk.Wake()
		e.Run()
	}
}

// TestPopReleasesClosure guards the satellite fix: after pop, the heap's
// backing array must not retain the event's fn closure. The seed
// implementation left the popped event in the vacated slice slot, pinning
// the closure (and everything it captured) until the slot was reused.
func TestPopReleasesClosure(t *testing.T) {
	e := NewEngine()
	var collected atomic.Bool
	func() {
		big := make([]byte, 1<<20)
		runtime.SetFinalizer(&big[0], func(*byte) { collected.Store(true) })
		e.At(1, func() { _ = big })
	}()
	// Keep a later event pending so the backing array stays alive.
	e.At(2, func() {})
	e.Step() // pops and runs the closure over big
	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if !collected.Load() {
		t.Fatal("popped event's closure still reachable from the event heap")
	}
}

// TestHeapMatchesBoxedReference cross-checks the specialized heap against
// container/heap on a long pseudorandom push/pop interleaving.
func TestHeapMatchesBoxedReference(t *testing.T) {
	var fast eventHeap
	var ref boxedHeap
	r := lcg(7)
	var seq uint64
	for op := 0; op < 20000; op++ {
		if len(ref) == 0 || r.next()%3 != 0 {
			seq++
			ev := event{at: Time(r.next() % 512), seq: seq}
			fast.push(ev)
			heap.Push(&ref, ev)
		} else {
			got := fast.pop()
			want := heap.Pop(&ref).(event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("op %d: pop = {at:%d seq:%d}, want {at:%d seq:%d}",
					op, got.at, got.seq, want.at, want.seq)
			}
		}
	}
	for len(ref) > 0 {
		got := fast.pop()
		want := heap.Pop(&ref).(event)
		if got.at != want.at || got.seq != want.seq {
			t.Fatalf("drain: pop = {at:%d seq:%d}, want {at:%d seq:%d}",
				got.at, got.seq, want.at, want.seq)
		}
	}
	if len(fast) != 0 {
		t.Fatalf("specialized heap not drained: %d left", len(fast))
	}
}
