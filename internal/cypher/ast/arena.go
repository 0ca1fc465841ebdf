package ast

// Chunk is an arena of one node type, for code that builds trees of many
// small nodes (the parser). Chunks start small and double up to a bound,
// so a short tree wastes little and a long one still allocates rarely.
// A node handed out never moves, and a chunk lives as long as any of its
// nodes: trees share chunks, which is safe because they are immutable
// once built.
type Chunk[T any] []T

// Alloc returns a zeroed node.
func (c *Chunk[T]) Alloc() *T {
	return &Window((*[]T)(c), 1, NextChunkCap)[0]
}

// Window returns the next n elements of the chunk *c, or nil for none.
// They are zero unless the caller reuses the chunk without clearing it.
// A window is capped at n, so an append to it cannot reach a
// neighbouring one, and it never moves: when the chunk lacks room, Window
// starts a new one of capacity grow(cap(*c), n) and leaves the old one to
// the windows taken from it.
func Window[T any](c *[]T, n int, grow func(prev, n int) int) []T {
	if len(*c)+n > cap(*c) {
		*c = make([]T, 0, grow(cap(*c), n))
	}
	if n == 0 {
		return nil
	}
	start := len(*c)
	*c = (*c)[:start+n]
	return (*c)[start : start+n : start+n]
}

const minChunk, maxChunk = 4, 64

// NextChunkCap is the capacity of the chunk that follows one of capacity
// prev, made to hold at least n elements: chunks double up to a bound.
func NextChunkCap(prev, n int) int {
	return max(n, min(max(2*prev, minChunk), maxChunk))
}

// DoubleChunkCap is NextChunkCap without the bound, for a chunk that is
// rewound and refilled: it doubles until it holds everything carved
// between two rewinds, and from then on no window allocates.
func DoubleChunkCap(prev, n int) int {
	return max(n, 2*prev, minChunk)
}

// Rewind readies a chunk that is refilled for every tree: it clears what
// the last tree took from it, so that nothing of that tree stays
// reachable and every window comes out zero, and empties it.
func Rewind[T any](c *[]T) {
	clear(*c)
	*c = (*c)[:0]
}
