package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Journal is a directory of durable lifecycle records, one container
// per ID at <dir>/<id>.ckpt, shared by the daemon's job journal and the
// coordinator's campaign journal. Callers own only the mapping between
// their objects and a record's sections.
type Journal struct {
	dir     string
	prefix  string // IDs are prefix + a positive decimal ("j7", "c3")
	kind    string
	version uint16
}

// OpenJournal creates dir and proves it writable, so a process with
// broken persistence fails fast at startup instead of at its first
// lifecycle transition. Records carry the given container kind and
// payload version; a file with any other is corrupt to Load.
func OpenJournal(dir, prefix, kind string, version uint16) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: journal dir %s: %w", dir, err)
	}
	probe, err := os.CreateTemp(dir, ".probe*")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: journal dir %s not writable: %w", dir, err)
	}
	probe.Close()
	os.Remove(probe.Name()) //nolint:errcheck
	return &Journal{dir: dir, prefix: prefix, kind: kind, version: version}, nil
}

// Path returns the record file for id.
func (jl *Journal) Path(id string) string { return filepath.Join(jl.dir, id+FileExt) }

// Num parses the numeric part of a canonical ID (prefix followed by a
// positive decimal without sign or leading zeros), or returns -1.
func (jl *Journal) Num(id string) int {
	n, err := strconv.Atoi(strings.TrimPrefix(id, jl.prefix))
	if err != nil || n <= 0 || jl.prefix+strconv.Itoa(n) != id {
		return -1
	}
	return n
}

// RecordLock orders the writes of one record: it serializes whole
// snapshot-and-write cycles and remembers the lifecycle rank last
// committed. The zero value is ready; keep one per record.
type RecordLock struct {
	mu   sync.Mutex
	rank int
}

// Write commits a snapshot of record id. snapshot runs under lock, so
// it sees the record's newest state; it fills box with the record's
// sections (and fingerprint) and returns the snapshot's lifecycle rank.
// A snapshot ranking below the last committed one is dropped, so racing
// writers (a submitter journaling "queued" after a worker already
// started the job) never move a record backwards. Write on a nil
// Journal does nothing.
func (jl *Journal) Write(lock *RecordLock, id string, snapshot func(box *Container) (rank int, err error)) error {
	if jl == nil {
		return nil
	}
	lock.mu.Lock()
	defer lock.mu.Unlock()
	box := New(jl.kind, jl.version, 0)
	rank, err := snapshot(box)
	if err != nil || rank < lock.rank {
		return err
	}
	if _, err := WriteFileAtomic(jl.Path(id), box); err != nil {
		return err
	}
	lock.rank = rank
	return nil
}

// decode verifies one record image: every CRC, then kind and payload
// version.
func (jl *Journal) decode(b []byte) (*Container, error) {
	c, err := Decode(b)
	if err != nil {
		return nil, err
	}
	if c.Kind != jl.kind || c.Version != jl.version {
		return nil, fmt.Errorf("%w: %s v%d, want %s v%d", ErrKind, c.Kind, c.Version, jl.kind, jl.version)
	}
	return c, nil
}

// Load hands every verified record to accept in ascending numeric ID
// order. Files that fail verification, carry a name that is not a
// canonical ID, or that accept rejects are skipped and counted in
// corrupt: recovery degrades to whatever survived instead of acting on
// a damaged record.
func (jl *Journal) Load(accept func(id string, box *Container) bool) (corrupt int, err error) {
	files, err := ListDir(jl.dir)
	if err != nil {
		return 0, err
	}
	ids := make([]string, len(files))
	for i, path := range files {
		ids[i] = strings.TrimSuffix(filepath.Base(path), FileExt)
	}
	sort.Slice(ids, func(a, b int) bool { return jl.Num(ids[a]) < jl.Num(ids[b]) })
	for _, id := range ids {
		b, err := os.ReadFile(jl.Path(id))
		var box *Container
		if err == nil {
			box, err = jl.decode(b)
		}
		if err != nil || jl.Num(id) < 0 || !accept(id, box) {
			corrupt++
		}
	}
	return corrupt, nil
}

// Sweep applies retention to the terminal records named by ids:
// retain > 0 keeps only the retain highest-numbered of them, and
// maxAge > 0 also collects any whose file was last written more than
// maxAge before now. It returns the collected IDs in ascending numeric
// order; a record that cannot be removed stays, and its error is
// returned joined with any others.
func (jl *Journal) Sweep(ids []string, retain int, maxAge time.Duration, now time.Time) (removed []string, err error) {
	ids = append([]string(nil), ids...)
	sort.Slice(ids, func(a, b int) bool { return jl.Num(ids[a]) < jl.Num(ids[b]) })
	var errs []error
	for i, id := range ids {
		drop := retain > 0 && i < len(ids)-retain
		if !drop && maxAge > 0 {
			st, err := os.Stat(jl.Path(id))
			drop = err == nil && now.Sub(st.ModTime()) > maxAge
		}
		if !drop {
			continue
		}
		if err := os.Remove(jl.Path(id)); err != nil {
			errs = append(errs, err)
			continue
		}
		removed = append(removed, id)
	}
	return removed, errors.Join(errs...)
}
