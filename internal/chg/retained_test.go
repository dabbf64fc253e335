package chg_test

import (
	"runtime"
	"testing"

	"cpplookup/internal/hiergen"
)

// TestGiantRetainedBounded gates the memory a built graph keeps alive
// on the repository benchmark's hierarchy: hiergen.Giant at 20,000
// classes and 512 member names. Each class holds its declarations in
// one slice that carries their member ids, and no per-class index, so
// the graph retains about 6.3 MB (6.9 MB under -race); a member-id map
// per class made it 9.3 MB.
func TestGiantRetainedBounded(t *testing.T) {
	cfg := hiergen.GiantDefaults(20000)
	cfg.MemberNames = 512
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	g := hiergen.Giant(cfg)
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(g)
	const limit = 8 << 20
	if got := int64(after.HeapAlloc) - int64(before.HeapAlloc); got >= limit {
		t.Errorf("a %d-class Giant retains %d bytes, want under %d", g.NumClasses(), got, limit)
	}
}
