package harness

import (
	"path/filepath"
	"testing"

	"cpplookup/internal/chg"
	"cpplookup/internal/core"
	"cpplookup/internal/engine"
	"cpplookup/internal/image"
)

// TestImageStrategiesRestoreSavedCells restores E18's smoke grid
// through the gob-decode and mmap-load strategies' save and load paths:
// every (class, member) cell of each restored snapshot, under every
// backend, looked up by the saved class and member names, must format
// as the saved snapshot's.
func TestImageStrategiesRestoreSavedCells(t *testing.T) {
	for _, cfg := range imageFamily().Smoke {
		t.Run(cfg.Name, func(t *testing.T) {
			g := cfg.Make()
			saved := warmImageSnapshot(g)
			dir := t.TempDir()
			gobPath, imgPath := filepath.Join(dir, "snap.gob"), filepath.Join(dir, "snap.img")
			if _, err := writeGob(saved, gobPath); err != nil {
				t.Fatal(err)
			}
			if err := image.WriteFile(imgPath, saved); err != nil {
				t.Fatal(err)
			}
			viaGob, err := readGob(gobPath)
			if err != nil {
				t.Fatal(err)
			}
			im, err := image.OpenFile(imgPath)
			if err != nil {
				t.Fatal(err)
			}
			defer im.Close()
			for _, r := range []struct {
				strategy string
				snap     *engine.Snapshot
			}{{"gob-decode", viaGob}, {"mmap-load", im.Snapshot()}} {
				wrong, cells := 0, 0
				rg := r.snap.Graph()
				for _, id := range saved.Semantics() {
					for c := chg.ClassID(0); int(c) < g.NumClasses(); c++ {
						rc, _ := rg.ID(g.Name(c))
						for m := chg.MemberID(0); int(m) < g.NumMemberNames(); m++ {
							want, _ := saved.LookupSem(id, c, m)
							got := core.UndefinedResult()
							if rm, ok := rg.MemberID(g.MemberName(m)); ok {
								got, _ = r.snap.LookupSem(id, rc, rm)
							}
							if cells++; got.Format(rg) != want.Format(g) {
								wrong++
							}
						}
					}
				}
				if wrong > 0 {
					t.Errorf("%s: %d of %d cells format unlike the saved snapshot's", r.strategy, wrong, cells)
				}
			}
		})
	}
}
