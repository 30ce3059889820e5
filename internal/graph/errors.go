package graph

import "errors"

// Sentinel errors for the graph package's query operations, wrapped with
// %w at every return site so callers can classify failures with
// errors.Is across the package boundary.
var (
	// ErrUnknownEdge reports a Position whose EdgeID is outside the network.
	ErrUnknownEdge = errors.New("graph: unknown edge")
	// ErrNoPath reports endpoints that no chain of road segments connects.
	ErrNoPath = errors.New("graph: no path between the endpoints")
)
