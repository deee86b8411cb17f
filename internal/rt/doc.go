// Package rt is the runtime system behind the generated and interpreted
// primitives: aggregation and join hash tables (scalar and vector-at-a-time),
// packed-row layout helpers, arenas and memory budgets.
//
// Every hash table has one writer, the worker that builds it, and rt takes no
// lock: a build pipeline's join tables are sealed into one by adoption, its
// aggregation tables merged, after the workers finished. The package stays
// under the lockscope analyzer (cmd/inklint) so that a lock added back keeps
// its critical sections short and self-contained: holding one across a
// fault-injection point, a channel operation, or a callback is the deadlock /
// convoy shape the analyzer rejects.
//
//inklint:lockscope
package rt
