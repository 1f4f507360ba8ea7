package dsp

import "sync"

// Arena is a checkout-style scratch allocator for the in-place DSP
// variants (the *With functions and the FIR/SOS *To methods). Each call to
// F64/C128/Ints hands out the next buffer in sequence, growing it to the
// requested length; Reset makes every buffer available again without
// freeing it. Because a processing pipeline checks buffers out in the same
// order on every run, the arena converges to the pipeline's peak footprint
// after the first call and steady-state processing allocates nothing.
//
// Buffers returned by an arena are valid only until the next Reset, and
// their contents are uninitialized. An Arena is not safe for concurrent
// use; use one arena per goroutine. Work that needs scratch for a
// bounded span — one Process call, one beat, one transform block —
// borrows an arena from the process-wide pool (GetArena/PutArena)
// instead of owning one, so scratch is held per goroutine at work, not
// per session.
//
// All arena-taking functions in this package accept a nil *Arena, in which
// case they allocate from the heap exactly like their classic
// counterparts.
type Arena struct {
	f64  [][]float64
	c128 [][]complex128
	ints [][]int
	nf   int
	nc   int
	ni   int
}

// arenaPool is the process-wide scratch pool. Arenas keep their grown
// buffers across checkouts, so steady-state borrowing allocates nothing.
var arenaPool = sync.Pool{New: func() any { return new(Arena) }}

// GetArena checks a reset arena out of the process-wide pool. Return it
// with PutArena once no buffer it handed out is referenced any more.
func GetArena() *Arena {
	a := arenaPool.Get().(*Arena)
	a.Reset()
	return a
}

// PutArena returns an arena to the process-wide pool.
func PutArena(a *Arena) { arenaPool.Put(a) }

// Reset returns every checked-out buffer to the arena. Previously returned
// slices must no longer be used.
func (a *Arena) Reset() {
	a.nf, a.nc, a.ni = 0, 0, 0
}

// F64 checks out a float64 buffer of length n (contents undefined).
func (a *Arena) F64(n int) []float64 {
	if a.nf == len(a.f64) {
		a.f64 = append(a.f64, make([]float64, n))
	} else if cap(a.f64[a.nf]) < n {
		a.f64[a.nf] = make([]float64, n)
	}
	buf := a.f64[a.nf][:n]
	a.nf++
	return buf
}

// C128 checks out a complex128 buffer of length n (contents undefined).
func (a *Arena) C128(n int) []complex128 {
	if a.nc == len(a.c128) {
		a.c128 = append(a.c128, make([]complex128, n))
	} else if cap(a.c128[a.nc]) < n {
		a.c128[a.nc] = make([]complex128, n)
	}
	buf := a.c128[a.nc][:n]
	a.nc++
	return buf
}

// Ints checks out an int buffer of length n (contents undefined).
func (a *Arena) Ints(n int) []int {
	if a.ni == len(a.ints) {
		a.ints = append(a.ints, make([]int, n))
	} else if cap(a.ints[a.ni]) < n {
		a.ints[a.ni] = make([]int, n)
	}
	buf := a.ints[a.ni][:n]
	a.ni++
	return buf
}

// arenaF64 allocates from a when non-nil and from the heap otherwise.
func arenaF64(a *Arena, n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	return a.F64(n)
}

// arenaInts allocates from a when non-nil and from the heap otherwise.
func arenaInts(a *Arena, n int) []int {
	if a == nil {
		return make([]int, n)
	}
	return a.Ints(n)
}
