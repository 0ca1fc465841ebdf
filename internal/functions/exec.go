package functions

import (
	"math/rand"
	"sync/atomic"
)

// ExecState is the per-execution state behind the nondeterministic scalar
// functions: the RNG rand() draws from and the logical clock timestamp()
// increments. Each query execution owns one, threaded to the function
// implementations through the GraphContext (see ExecStater), so
// concurrent executions never share mutable state and a fixed seed
// reproduces the same values.
//
// A nil *ExecState is valid and selects the process-global fallback:
// rand() draws from the (internally locked) global math/rand source and
// timestamp() from an atomic counter — race-free, but not reproducible
// per seed.
type ExecState struct {
	seed int64
	rng  *rand.Rand
	ts   int64
}

// NewExecState creates execution state reproducible from seed. The RNG
// is seeded lazily on the first Rand call: seeding math/rand's source is
// far more expensive than a whole typical query execution, and most
// queries never call rand().
func NewExecState(seed int64) *ExecState {
	return &ExecState{seed: seed}
}

// Reset returns s to the state NewExecState(seed) creates, so an owner
// running one execution at a time can reuse one ExecState.
func (s *ExecState) Reset(seed int64) { *s = ExecState{seed: seed} }

// Rand returns the next rand() draw.
func (s *ExecState) Rand() float64 {
	if s == nil {
		return rand.Float64()
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(s.seed))
	}
	return s.rng.Float64()
}

// Timestamp returns the next timestamp() tick. A logical clock rather
// than wall time keeps runs reproducible.
func (s *ExecState) Timestamp() int64 {
	if s == nil {
		return fallbackTimestamp.Add(1)
	}
	s.ts++
	return s.ts
}

// fallbackTimestamp is the atomic logical clock for callers that do not
// supply an ExecState.
var fallbackTimestamp atomic.Int64

// ExecStater is implemented by GraphContexts that carry per-execution
// state. Contexts that don't (or that return nil) get the global
// fallback, so existing GraphContext implementations keep working.
type ExecStater interface{ ExecState() *ExecState }

// execOf extracts the execution state from a GraphContext; nil selects
// the fallback behaviour of the ExecState methods.
func execOf(ctx GraphContext) *ExecState {
	if es, ok := ctx.(ExecStater); ok {
		return es.ExecState()
	}
	return nil
}

// DeriveSeed derives the seed of an independent logical substream
// (a campaign shard, one execution's ExecState) from a base seed and the
// substream index, using the splitmix64 finalizer so that adjacent
// indices yield well-decorrelated streams.
func DeriveSeed(seed, stream int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(stream)+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
