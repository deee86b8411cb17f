package exec

// Helpers of the in-package benchmarks that the external test package
// (exec_test, which may import plancache) uses too.
var (
	BenchTable = benchTable
	BenchNode  = benchNode
)
