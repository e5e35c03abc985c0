package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/scenario"
)

// maxRetries bounds how often one submission is retried after a 429;
// a rejection that persists past it counts as a failed unit.
const maxRetries = 3

// campaignPoll is the campaign status poll period. The coordinator has
// no completion stream, so campaign time includes up to one period.
const campaignPoll = 10 * time.Millisecond

// client drives the public HTTP API of a daemon or coordinator.
type client struct {
	base  string
	hc    *http.Client
	sleep func(ctx context.Context, d time.Duration) error
	// retries429 counts submissions answered with 429 and retried.
	retries429 atomic.Int64
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	return &client{base: base, hc: &http.Client{Transport: tr}, sleep: sleepCtx}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// errRejected marks a submission still refused after maxRetries.
var errRejected = errors.New("submission rejected after retries")

// submit POSTs body and decodes the accepted envelope's id, retrying a
// 429 after its Retry-After.
func (c *client) submit(ctx context.Context, path string, body []byte, key string) (string, error) {
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		req.Header.Set("Content-Type", "application/json")
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return "", err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		switch resp.StatusCode {
		case http.StatusAccepted, http.StatusOK:
			var env struct {
				ID string `json:"id"`
			}
			if err := json.Unmarshal(b, &env); err != nil || env.ID == "" {
				return "", fmt.Errorf("POST %s: bad envelope %q", path, b)
			}
			return env.ID, nil
		case http.StatusTooManyRequests:
			if attempt >= maxRetries {
				return "", errRejected
			}
			c.retries429.Add(1)
			wait := time.Second
			if s, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && s >= 0 {
				wait = time.Duration(s) * time.Second
			}
			if err := c.sleep(ctx, wait); err != nil {
				return "", err
			}
		default:
			return "", fmt.Errorf("POST %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
		}
	}
}

// get fetches path from the client's server and returns the body of a
// 200 answer.
func (c *client) get(ctx context.Context, path string) ([]byte, error) {
	return c.fetch(ctx, c.base, path, true)
}

// getFrom is get against another server (a coordinator's workers).
func (c *client) getFrom(ctx context.Context, base, path string) ([]byte, error) {
	return c.fetch(ctx, base, path, true)
}

// follow reads a stream from the client's server to its end and
// discards it.
func (c *client) follow(ctx context.Context, path string) error {
	_, err := c.fetch(ctx, c.base, path, false)
	return err
}

func (c *client) fetch(ctx context.Context, base, path string, keep bool) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var b []byte
	if keep || resp.StatusCode != http.StatusOK {
		b, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}

// runJob submits one scenario job, follows its event stream until the
// daemon closes it (the job has ended), and fetches the result bytes.
func (c *client) runJob(ctx context.Context, spec scenario.Spec, key string) (id string, result []byte, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", nil, err
	}
	if id, err = c.submit(ctx, "/v1/jobs", body, key); err != nil {
		return "", nil, err
	}
	if err := c.follow(ctx, "/v1/jobs/"+id+"/events"); err != nil {
		return id, nil, err
	}
	result, err = c.get(ctx, "/v1/jobs/"+id+"/result")
	return id, result, err
}

// runCampaign submits a campaign, polls it to a terminal state and
// fetches the merged document.
func (c *client) runCampaign(ctx context.Context, spec scenario.Spec, seeds []int64) (id string, result []byte, err error) {
	body, err := json.Marshal(map[string]any{"spec": spec, "seeds": seeds})
	if err != nil {
		return "", nil, err
	}
	if id, err = c.submit(ctx, "/v1/campaigns", body, ""); err != nil {
		return "", nil, err
	}
	for {
		b, err := c.get(ctx, "/v1/campaigns/"+id)
		if err != nil {
			return id, nil, err
		}
		var env struct {
			Status string `json:"status"`
			Error  string `json:"error"`
		}
		if err := json.Unmarshal(b, &env); err != nil {
			return id, nil, fmt.Errorf("campaign %s: %w", id, err)
		}
		switch env.Status {
		case "succeeded":
			result, err = c.get(ctx, "/v1/campaigns/"+id+"/result")
			return id, result, err
		case "failed":
			return id, nil, fmt.Errorf("campaign %s failed: %s", id, env.Error)
		}
		if err := c.sleep(ctx, campaignPoll); err != nil {
			return id, nil, err
		}
	}
}

// outcome is one unit as the client saw it.
type outcome struct {
	pool       int // pool index of the unit
	id         string
	start, end time.Time
	result     []byte
	err        error // transport, rejection or job failure
}

func (o *outcome) seconds() float64 { return o.end.Sub(o.start).Seconds() }

// closedLoop runs units through do with `clients` concurrent callers,
// each sending its next unit only after the previous one returned.
func closedLoop(ctx context.Context, pool []int, clients int, do func(ctx context.Context, pos, k int) (string, []byte, error)) []outcome {
	out := make([]outcome, len(pool))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(pool) {
					return
				}
				o := &out[i]
				o.pool = pool[i]
				o.start = time.Now()
				o.id, o.result, o.err = do(ctx, i, pool[i])
				o.end = time.Now()
			}
		}()
	}
	wg.Wait()
	return out
}

// account counts attempted and failed units: a unit fails when the
// client saw an error or check rejects its result bytes.
func account(outs []outcome, check func(k int, result []byte) error) (attempted, failed int, errs []error) {
	for i := range outs {
		o := &outs[i]
		attempted++
		err := o.err
		if err == nil {
			err = check(o.pool, o.result)
		}
		if err != nil {
			failed++
			errs = append(errs, fmt.Errorf("unit %d (pool %d): %w", i, o.pool, err))
		}
	}
	return attempted, failed, errs
}
