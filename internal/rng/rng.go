// Package rng provides a small, fast, deterministic pseudo-random
// number generator for the Monte Carlo solver.
//
// Reproducibility across runs and platforms is a hard requirement for
// the paper's experiments (propagation-delay errors are averaged over
// nine fixed seeds), so the simulator does not use math/rand's global
// state. The generator is xoshiro256**, seeded through splitmix64 as
// its authors recommend.
package rng

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Source is a deterministic xoshiro256** generator. The zero value is
// not usable; construct with New.
//
//statecover:root save=MarshalBinary load=UnmarshalBinary
type Source struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed. Two sources built
// from the same seed produce identical streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += golden
		src.s[i] = mix64(sm)
	}
	// A pathological all-zero state cannot occur: splitmix64 output is a
	// bijection of its (distinct) inputs, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// golden is splitmix64's increment, 2^64 divided by the golden ratio.
const golden = 0x9e3779b97f4a7c15

// mix64 is splitmix64's output function: a bijection of uint64 whose
// output bits each depend on every input bit.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Derive maps a base seed and an ordered tuple of keys (a task's point
// index, its run number, ...) to the seed of that task's stream:
// counter-style key mixing in the spirit of Salmon et al., "Parallel
// Random Numbers: As Easy as 1, 2, 3" (SC'11). The base and then each
// key in turn are folded into a running state through splitmix64's
// mixer, so nearby tuples land on unrelated seeds. Linear offsets such
// as base + i do not: there (base, 1) and (base+1, 0) are the same
// stream. For fixed keys Derive is a bijection of base, so distinct
// base seeds never share a task stream.
func Derive(base uint64, keys ...uint64) uint64 {
	h := mix64(base + golden)
	for _, k := range keys {
		h = mix64((h ^ k) + golden)
	}
	return h
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	res := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return res
}

// Float64 returns a uniform float64 in the half-open interval [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Open returns a uniform float64 in the open interval (0, 1). The Monte
// Carlo time step -ln(r)/Gamma (Eq. 5 of the paper) requires r > 0.
func (r *Source) Open() float64 {
	for {
		v := r.Float64()
		if v > 0 {
			return v
		}
	}
}

// Exp returns an exponentially distributed waiting time with the given
// total rate (Eq. 5: dt = -ln(r)/rate). It panics if rate <= 0 because
// a non-positive total rate means the caller selected an event from an
// empty distribution.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with non-positive rate")
	}
	return -math.Log(r.Open()) / rate
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(r.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Split returns a new Source deterministically derived from this one
// (consuming one value from the parent stream). Useful for giving
// independent reproducible streams to parallel sweep points.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// batchSize is the refill granularity of Batch. Two draws per Monte
// Carlo event (waiting time + selection) means one refill per ~128
// events; the buffer is one page of uint64s, small enough to stay
// cache-resident.
const batchSize = 256

// Batch draws from a Source through a refillable buffer: the underlying
// generator is advanced batchSize values at a time in a tight loop, and
// individual draws are single loads from the buffer. Consumption order
// equals generation order, so a Batch yields bit-for-bit the stream of
// the Source it wraps — batching is purely an amortization of the
// per-draw state update, never a reordering (see TestBatchMatchesSource).
//
// Checkpointing works in logical coordinates: MarshalBinary serializes
// the state of a plain Source that has produced exactly the values
// consumed so far, so snapshots are byte-compatible with Source's
// encoding regardless of how much of the buffer is prefetched. A Batch
// is not safe for concurrent use, mirroring Source.
//
//statecover:root save=MarshalBinary load=UnmarshalBinary
type Batch struct {
	src  Source            // underlying generator, ahead of consumption by n-pos draws
	snap Source            // state at the last refill; logical state = snap advanced pos draws
	buf  [batchSize]uint64 //statecover:derived prefetch cache; restores zero pos/n so it refills before the next draw
	pos  int               // next unconsumed buffer slot
	n    int               // filled slots (0 before the first refill and after restores)
}

// NewBatch returns a buffered generator seeded like New(seed): it
// produces exactly New(seed)'s stream.
func NewBatch(seed uint64) *Batch {
	b := &Batch{}
	b.src = *New(seed)
	b.snap = b.src
	return b
}

// refill snapshots the current logical state and generates the next
// batchSize values.
func (b *Batch) refill() {
	b.snap = b.src
	for i := range b.buf {
		b.buf[i] = b.src.Uint64()
	}
	b.pos, b.n = 0, batchSize
}

// Uint64 returns the next 64 random bits of the underlying stream.
//
//semsim:hot
func (b *Batch) Uint64() uint64 {
	if b.pos == b.n {
		b.refill()
	}
	v := b.buf[b.pos]
	b.pos++
	return v
}

// Float64 returns a uniform float64 in the half-open interval [0, 1).
//
//semsim:hot
func (b *Batch) Float64() float64 {
	return float64(b.Uint64()>>11) * (1.0 / (1 << 53))
}

// Open returns a uniform float64 in the open interval (0, 1), matching
// Source.Open draw for draw.
//
//semsim:hot
func (b *Batch) Open() float64 {
	for {
		v := b.Float64()
		if v > 0 {
			return v
		}
	}
}

// Exp returns an exponentially distributed waiting time with the given
// total rate (Eq. 5: dt = -ln(r)/rate), matching Source.Exp draw for
// draw. It panics if rate <= 0.
//
//semsim:hot
func (b *Batch) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with non-positive rate")
	}
	return -math.Log(b.Open()) / rate
}

// Intn returns a uniform integer in [0, n), matching Source.Intn draw
// for draw. It panics if n <= 0.
func (b *Batch) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	bound := uint64(n)
	threshold := (-bound) % bound
	for {
		hi, lo := bits.Mul64(b.Uint64(), bound)
		if lo >= threshold {
			return int(hi)
		}
	}
}

// Reseed rewinds the batch onto the stream of NewBatch(seed),
// discarding any prefetched buffer: subsequent draws are bit-for-bit
// those of a freshly constructed batch with the same seed. It exists so
// a long-lived simulation session can restart on a new deterministic
// stream per sweep point without reallocating the generator.
func (b *Batch) Reseed(seed uint64) {
	b.src = *New(seed)
	b.snap = b.src
	b.pos, b.n = 0, 0
}

// MarshalBinary encodes the logical generator state — the Source state
// after exactly the consumed draws — in Source's 32-byte format, so
// Batch and Source snapshots are interchangeable. Replaying at most
// batchSize draws from the refill snapshot reconstructs it.
func (b *Batch) MarshalBinary() ([]byte, error) {
	logical := b.snap
	for i := 0; i < b.pos; i++ {
		logical.Uint64()
	}
	return logical.MarshalBinary()
}

// UnmarshalBinary restores a state produced by Source.MarshalBinary or
// Batch.MarshalBinary, discarding any prefetched buffer.
func (b *Batch) UnmarshalBinary(data []byte) error {
	if err := b.src.UnmarshalBinary(data); err != nil {
		return err
	}
	b.snap = b.src
	b.pos, b.n = 0, 0
	return nil
}

// MarshalBinary encodes the generator state (32 bytes, little endian),
// so long simulations can checkpoint and resume bit-exactly.
func (r *Source) MarshalBinary() ([]byte, error) {
	out := make([]byte, 32)
	for i, s := range r.s {
		binary.LittleEndian.PutUint64(out[8*i:], s)
	}
	return out, nil
}

// UnmarshalBinary restores a state produced by MarshalBinary.
func (r *Source) UnmarshalBinary(data []byte) error {
	if len(data) != 32 {
		return fmt.Errorf("rng: state must be 32 bytes, got %d", len(data))
	}
	var s [4]uint64
	for i := range s {
		s[i] = binary.LittleEndian.Uint64(data[8*i:])
	}
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return fmt.Errorf("rng: all-zero state is invalid")
	}
	r.s = s
	return nil
}
