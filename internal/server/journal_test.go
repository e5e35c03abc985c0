package server

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/scenario"
)

// readJournalEntry returns the job's on-disk record (ok=false before
// the first write lands). A record that exists but fails verification
// is a test error: writes are atomic, so no reader may see a torn one.
func readJournalEntry(t *testing.T, dir, id string) (journalEntry, bool) {
	t.Helper()
	box, err := checkpoint.ReadFile(filepath.Join(dir, "journal", id+checkpoint.FileExt))
	if errors.Is(err, os.ErrNotExist) {
		return journalEntry{}, false
	}
	if err != nil {
		t.Errorf("journal %s: torn record: %v", id, err)
		return journalEntry{}, false
	}
	b, ok := box.Section("job")
	if box.Kind != checkpoint.KindJobJournal || !ok {
		t.Errorf("journal %s: %s record without a job section", id, box.Kind)
		return journalEntry{}, false
	}
	var ent journalEntry
	if err := json.Unmarshal(b, &ent); err != nil {
		t.Errorf("journal %s: torn record: %v", id, err)
		return journalEntry{}, false
	}
	return ent, true
}

// writeJournalEntry plants a job record in the on-disk format a
// crashed daemon leaves behind.
func writeJournalEntry(t *testing.T, dir string, ent journalEntry) {
	t.Helper()
	b, err := json.Marshal(ent)
	if err != nil {
		t.Fatal(err)
	}
	box := checkpoint.New(checkpoint.KindJobJournal, jobJournalVersion, 0)
	box.Add("job", b)
	if err := os.MkdirAll(filepath.Join(dir, "journal"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.WriteFileAtomic(filepath.Join(dir, "journal", ent.ID+checkpoint.FileExt), box); err != nil {
		t.Fatal(err)
	}
}

// TestJournalNeverRegresses drives concurrent lifecycle transitions —
// submissions, worker pickups, cancels of queued and running jobs, and
// stray journal rewrites racing all of them — while a reader polls the
// journal. No record may ever move backwards, and each job's record
// must already be terminal when its Done channel closes.
func TestJournalNeverRegresses(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, Config{QueueCap: 32, Workers: 2, JobTimeout: time.Minute, CheckpointDir: dir})
	s.Start()

	stop := make(chan struct{})
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		seen := make(map[string]int)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, j := range s.Jobs() {
				ent, ok := readJournalEntry(t, dir, j.ID())
				if !ok {
					continue
				}
				r := stateRank(ent.State)
				if r < seen[j.ID()] {
					t.Errorf("journal %s moved backwards to %s", j.ID(), ent.State)
				}
				seen[j.ID()] = r
			}
		}
	}()

	var wg sync.WaitGroup
	var jobs []*Job
	for i := 0; i < 16; i++ {
		j, err := s.Submit(scenario.Spec{Terrain: "FLAT", UEs: 3, Controller: "random", Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
		for k := 0; k < 3; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for n := 0; n < 20; n++ {
					s.writeJournal(j)
				}
			}()
		}
		if i%3 == 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.Cancel(j.ID())
			}()
		}
	}
	for _, j := range jobs {
		waitDone(t, j)
		ent, ok := readJournalEntry(t, dir, j.ID())
		if !ok || ent.State != j.State() {
			t.Errorf("journal %s reads %q (present %v) when the job is already %s", j.ID(), ent.State, ok, j.State())
		}
	}
	wg.Wait()
	close(stop)
	<-watched
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
