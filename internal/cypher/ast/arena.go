package ast

// Chunk is an arena of one node type, for code that builds trees of many
// small nodes (the parser, the query synthesizer). Chunks start small and
// double up to a bound, so a short tree wastes little and a long one
// still allocates rarely. A node handed out never moves, and a chunk
// lives as long as any of its nodes: trees share chunks, which is safe
// because they are immutable once built.
type Chunk[T any] []T

// Alloc returns a zeroed node.
func (c *Chunk[T]) Alloc() *T {
	if len(*c) == cap(*c) {
		*c = make([]T, 0, NextChunkCap(cap(*c), 1))
	}
	*c = (*c)[:len(*c)+1]
	return &(*c)[len(*c)-1]
}

const minChunk, maxChunk = 4, 64

// NextChunkCap is the capacity of the chunk (or list slab) that follows
// one of capacity prev, made to hold at least n elements.
func NextChunkCap(prev, n int) int {
	return max(n, min(max(2*prev, minChunk), maxChunk))
}
