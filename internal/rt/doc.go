// Package rt is the runtime system behind the generated and interpreted
// primitives: sharded aggregation and join hash tables (scalar and
// vector-at-a-time), packed-row layout helpers, arenas and memory budgets.
//
// An aggregation table belongs to one worker and takes no lock. The join
// table, which a build pipeline's workers share, serializes writers with
// per-shard mutexes. Those critical sections must stay short and
// self-contained: holding a shard lock across a fault-injection point, a
// channel operation, or a callback is the deadlock / convoy shape the batched
// kernels are designed to avoid, and the lockscope analyzer (cmd/inklint)
// rejects it.
//
//inklint:lockscope
package rt
