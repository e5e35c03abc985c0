package cluster

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/checkpoint"
)

// The campaign journal makes the coordinator crash-recoverable. With
// Config.JournalDir set, every campaign keeps a durable record —
// template, canonical seed set, per-seed results and error rows,
// terminal state — in a checkpoint container at <dir>/<id>.ckpt,
// rewritten atomically at each transition (checkpoint.Journal owns the
// format, write ordering, loading and retention). A restarted coordinator
// scans the journal, recreates finished campaigns (re-merging to the
// same bytes — merge is a pure function of template × results), and
// relaunches running ones over only their missing seeds. Because the
// campaign ID survives the restart, the re-dispatched shards carry the
// same IdemSalt, so workers' idempotency keys re-adopt sub-jobs that
// kept running through the coordinator's death instead of starting
// duplicates.

// campaignJournalVersion is the payload version of KindCampaignJournal.
const campaignJournalVersion = 1

// seedError is one per-seed failure row in the journal and the merge.
type seedError struct {
	Seed  int64  `json:"seed"`
	Error string `json:"error"`
}

// campaignMeta is the journal's "meta" section.
type campaignMeta struct {
	ID         string      `json:"id"`
	State      string      `json:"state"`
	ErrMsg     string      `json:"error,omitempty"`
	Seeds      []int64     `json:"seeds"`
	SeedErrors []seedError `json:"seed_errors,omitempty"`
}

// openJournal proves the journal dir writable, rebuilds the campaign
// table from it, applies retention, and returns the running campaigns
// to relaunch (the caller starts their runners once the coordinator is
// fully constructed).
func (c *Coordinator) openJournal() ([]*Campaign, error) {
	jl, err := checkpoint.OpenJournal(c.cfg.JournalDir, "c", checkpoint.KindCampaignJournal, campaignJournalVersion)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	c.journal = jl
	relaunch, err := c.recoverCampaigns()
	if err != nil {
		return nil, fmt.Errorf("cluster: loading campaign journal: %w", err)
	}
	c.sweepJournals()
	return relaunch, nil
}

// journalCampaign persists the campaign's current state. Best-effort
// after the startup writability probe, like the worker job journal: a
// transient write failure (or an injected disk fault) must not take
// down a running campaign — the next transition rewrites the record.
func (c *Coordinator) journalCampaign(cm *Campaign) {
	if err := c.journal.Write(&cm.jlock, cm.ID, cm.encode); err != nil {
		c.cfg.Logf("cluster: journaling campaign %s: %v", cm.ID, err)
	}
}

// encode snapshots the campaign into a journal record: "meta",
// "template" and one "result-<seed>" section per collected seed, in
// seed order. A running snapshot ranks below a terminal one.
func (cm *Campaign) encode(box *checkpoint.Container) (rank int, err error) {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	meta := campaignMeta{ID: cm.ID, State: string(cm.state), ErrMsg: cm.errMsg, Seeds: cm.Seeds}
	for s, msg := range cm.seedErrs {
		meta.SeedErrors = append(meta.SeedErrors, seedError{Seed: s, Error: msg})
	}
	sort.Slice(meta.SeedErrors, func(i, j int) bool { return meta.SeedErrors[i].Seed < meta.SeedErrors[j].Seed })
	metaB, err := json.Marshal(meta)
	if err != nil {
		return 0, err
	}
	tmplB, err := json.Marshal(cm.Template)
	if err != nil {
		return 0, err
	}
	box.Fingerprint = cm.fp
	box.Add("meta", metaB)
	box.Add("template", tmplB)
	seeds := make([]int64, 0, len(cm.results))
	for s := range cm.results {
		seeds = append(seeds, s)
	}
	slices.Sort(seeds)
	for _, s := range seeds {
		box.Add(fmt.Sprintf("result-%d", s), cm.results[s])
	}
	if cm.state == CampaignRunning {
		return 1, nil
	}
	return 2, nil
}

// decodeCampaign rebuilds campaign id from its journal record; ok is
// false when a section is missing or malformed.
func decodeCampaign(id string, box *checkpoint.Container) (cm *Campaign, ok bool) {
	var meta campaignMeta
	metaB, ok := box.Section("meta")
	if !ok || json.Unmarshal(metaB, &meta) != nil || meta.ID != id {
		return nil, false
	}
	cm = &Campaign{
		ID:       id,
		Seeds:    meta.Seeds,
		fp:       box.Fingerprint,
		state:    CampaignState(meta.State),
		errMsg:   meta.ErrMsg,
		results:  make(map[int64]json.RawMessage),
		seedErrs: make(map[int64]string, len(meta.SeedErrors)),
		done:     make(chan struct{}),
	}
	tmplB, ok := box.Section("template")
	if !ok || json.Unmarshal(tmplB, &cm.Template) != nil {
		return nil, false
	}
	for _, sec := range box.Sections() {
		name, isResult := strings.CutPrefix(sec.Name, "result-")
		if !isResult {
			continue
		}
		seed, err := strconv.ParseInt(name, 10, 64)
		if err != nil || !json.Valid(sec.Data) {
			return nil, false
		}
		cm.results[seed] = json.RawMessage(sec.Data)
	}
	for _, se := range meta.SeedErrors {
		cm.seedErrs[se.Seed] = se.Error
	}
	return cm, true
}

// recoverCampaigns rebuilds the campaign table from the journal and
// returns every non-terminal campaign, marked for relaunch over its
// missing seeds.
func (c *Coordinator) recoverCampaigns() ([]*Campaign, error) {
	var relaunch []*Campaign
	corrupt, err := c.journal.Load(func(id string, box *checkpoint.Container) bool {
		cm, ok := decodeCampaign(id, box)
		if !ok {
			return false
		}
		if n := c.journal.Num(id); n > c.nextID {
			c.nextID = n
		}
		switch cm.state {
		case CampaignSucceeded:
			// Merge is a pure function of (template, results, error rows):
			// recomputing it yields the exact bytes the pre-crash
			// coordinator served.
			merged, err := MergeResults(cm.Template, cm.results, cm.seedErrs)
			if err != nil {
				cm.state = CampaignFailed
				cm.errMsg = err.Error()
			} else {
				cm.merged = merged
			}
			close(cm.done)
		case CampaignFailed:
			close(cm.done)
		default:
			cm.state = CampaignRunning
			cm.recovered = true
			relaunch = append(relaunch, cm)
		}
		c.campaigns[cm.ID] = cm
		c.order = append(c.order, cm.ID)
		return true
	})
	if corrupt > 0 {
		c.mJournalCorrupt.Add(float64(corrupt))
		c.cfg.Logf("cluster: skipped %d corrupt campaign journal file(s)", corrupt)
	}
	return relaunch, err
}

// sweepJournals applies JournalRetain and JournalMaxAge (against
// Config.Now) to terminal campaign journals. Running campaigns are
// never collected. The sweep runs once at startup, after recovery.
func (c *Coordinator) sweepJournals() {
	var terminal []string
	for _, id := range c.order {
		if c.campaigns[id].State() != CampaignRunning {
			terminal = append(terminal, id)
		}
	}
	now := time.Now()
	if c.cfg.Now != nil {
		now = c.cfg.Now()
	}
	removed, err := c.journal.Sweep(terminal, c.cfg.JournalRetain, c.cfg.JournalMaxAge, now)
	if err != nil {
		c.cfg.Logf("cluster: journal GC: %v", err)
	}
	for _, id := range removed {
		// The durable record is gone; forget the campaign entirely so
		// the API and the journal agree on what exists.
		c.mu.Lock()
		delete(c.campaigns, id)
		c.order = slices.DeleteFunc(c.order, func(o string) bool { return o == id })
		c.mu.Unlock()
		c.mJournalGC.Inc()
	}
}
