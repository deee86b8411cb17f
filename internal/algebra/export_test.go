package algebra

// EagerAggregate exposes the lowering's first rewrite to the external tests.
var EagerAggregate = eagerAggregate
