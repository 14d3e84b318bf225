package serve

import (
	"sync/atomic"

	"github.com/approx-analytics/grass/internal/core"
	"github.com/approx-analytics/grass/internal/exp"
	"github.com/approx-analytics/grass/internal/spec"
	"github.com/approx-analytics/grass/internal/task"
	"github.com/approx-analytics/grass/internal/trace"
)

// testNewFactory resolves a policy name the way the public Serve wrapper
// does.
func testNewFactory(policy string, seed int64) (spec.Factory, error) {
	return exp.NewFactory(policy, seed, core.LearnerRing)
}

// countingStream wraps trace.Stream to count how many jobs the server
// hands back to the pool.
type countingStream struct {
	*trace.Stream
	released atomic.Int64
}

func (c *countingStream) Release(j *task.Job) {
	c.released.Add(1)
	c.Stream.Release(j)
}
