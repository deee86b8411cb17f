package exec

// Helpers of the in-package benchmarks that the external test package
// (exec_test, which may import plancache) uses too.
var (
	BenchTable     = benchTable
	BenchNode      = benchNode
	WaitGoroutines = waitGoroutines
)

// WaitJobs waits until every compile job of the set has ended: landed, failed
// or canceled. A background job outlives the query that started it, so a test
// that needs the next execution to find the chains landed waits here.
func (a *ArtifactSet) WaitJobs() {
	a.mu.Lock()
	jobs := make([]*compileJob, 0, len(a.jobs))
	for _, j := range a.jobs {
		jobs = append(jobs, j)
	}
	a.mu.Unlock()
	for _, j := range jobs {
		<-j.done
	}
}
