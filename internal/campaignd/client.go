package campaignd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"interferometry/internal/jobqueue"
)

// Client talks to a campaignd server. The zero value with just Base set
// is usable; cmd/interferometry's -server mode and the chaos soak
// (TestChaosSoak) both drive the service through it.
type Client struct {
	// Base is the server URL, e.g. "http://localhost:8347".
	Base string
	// HTTP is the transport; nil means http.DefaultClient.
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// RetryError reports a shed submission (429) and the server's backoff
// hint.
type RetryError struct {
	After time.Duration
}

func (e *RetryError) Error() string {
	return fmt.Sprintf("campaignd: overloaded, retry after %s", e.After)
}

// Retry-After clamps. RFC 9110 allows both delta-seconds and an
// HTTP-date; a missing or unparseable value falls back to
// defaultRetryAfter, and any server-supplied wait is capped at
// maxRetryAfter so a typo (or a date far in the future) cannot park the
// client for hours.
const (
	defaultRetryAfter = time.Second
	maxRetryAfter     = 2 * time.Minute
)

// retryAfter parses a Retry-After header value (delta-seconds or
// HTTP-date, per RFC 9110 §10.2.3) into a clamped wait duration. A
// zero or negative delta falls back to the default (the server asked
// for a pause it then didn't name), but an HTTP-date at or before now
// clamps to zero — retry immediately. The distinction matters under
// clock skew: a server a minute behind the client stamps dates that are
// all "in the past" here, and waiting the default on every one would
// turn its named deadlines into an unconditional slowdown.
func retryAfter(h string, now time.Time) time.Duration {
	after := defaultRetryAfter
	if secs, err := strconv.Atoi(h); err == nil {
		if secs > 0 {
			after = time.Duration(secs) * time.Second
		}
	} else if t, err := http.ParseTime(h); err == nil {
		after = t.Sub(now)
		if after < 0 {
			after = 0
		}
	}
	if after > maxRetryAfter {
		after = maxRetryAfter
	}
	return after
}

func (c *Client) decodeError(resp *http.Response) error {
	var er errorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er); err != nil || er.Error == "" {
		return fmt.Errorf("campaignd: server returned %s", resp.Status)
	}
	return fmt.Errorf("campaignd: %s: %s", resp.Status, er.Error)
}

// Submit posts a spec. A 429 returns *RetryError carrying the server's
// Retry-After hint; SubmitWait wraps the retry loop.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (Status, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return Status{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+"/campaigns", bytes.NewReader(body))
	if err != nil {
		return Status{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusAccepted:
		var st Status
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return Status{}, fmt.Errorf("campaignd: bad status body: %w", err)
		}
		return st, nil
	case http.StatusTooManyRequests:
		return Status{}, &RetryError{After: retryAfter(resp.Header.Get("Retry-After"), time.Now())}
	case http.StatusServiceUnavailable:
		return Status{}, ErrDraining
	default:
		return Status{}, c.decodeError(resp)
	}
}

// SubmitWait submits, honoring 429 Retry-After hints until ctx ends.
func (c *Client) SubmitWait(ctx context.Context, spec JobSpec) (Status, error) {
	for {
		st, err := c.Submit(ctx, spec)
		var re *RetryError
		if !errors.As(err, &re) {
			return st, err
		}
		select {
		case <-ctx.Done():
			return Status{}, context.Cause(ctx)
		case <-time.After(re.After):
		}
	}
}

// Status fetches a campaign's current state.
func (c *Client) Status(ctx context.Context, id string) (Status, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/campaigns/"+id, nil)
	if err != nil {
		return Status{}, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return Status{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Status{}, c.decodeError(resp)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return Status{}, err
	}
	return st, nil
}

// Wait polls until the campaign leaves the running state.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (Status, error) {
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return Status{}, err
		}
		if st.State != StateRunning {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return Status{}, context.Cause(ctx)
		case <-time.After(poll):
		}
	}
}

// FleetHealth fetches the coordinator's per-worker health map from
// /queuez: accepted/rejected/audit-failed counters, sliding-window
// score, quarantine state. Empty when the coordinator has never seen a
// named worker.
func (c *Client) FleetHealth(ctx context.Context) (map[string]jobqueue.WorkerHealth, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/queuez", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.decodeError(resp)
	}
	var qz struct {
		Workers map[string]jobqueue.WorkerHealth `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qz); err != nil {
		return nil, err
	}
	return qz.Workers, nil
}

// Result fetches the finished dataset CSV (with provenance columns).
func (c *Client) Result(ctx context.Context, id string) ([]byte, error) {
	return c.fetchCSV(ctx, c.Base+"/campaigns/"+id+"/result")
}

// Measurements fetches the measurement-only canonical CSV.
func (c *Client) Measurements(ctx context.Context, id string) ([]byte, error) {
	return c.fetchCSV(ctx, c.Base+"/campaigns/"+id+"/measurements")
}

// StreamResult fetches the dataset CSV in pages of pageSize rows,
// writing each page to w as it arrives, so a large result never sits
// whole in client memory. The written bytes are identical to Result's.
// pageSize <= 0 means 256 rows per page.
func (c *Client) StreamResult(ctx context.Context, id string, pageSize int, w io.Writer) error {
	return c.streamCSV(ctx, c.Base+"/campaigns/"+id+"/result", pageSize, w)
}

// generationsURL builds the generations endpoint URL; canonical selects
// the measurement-only export.
func (c *Client) generationsURL(id string, canonical bool) string {
	url := c.Base + "/campaigns/" + id + "/generations"
	if canonical {
		url += "?canonical=1"
	}
	return url
}

// Generations fetches a search campaign's settled generations CSV.
// Works mid-run (settled generations are immutable); canonical selects
// the measurement-only export that is byte-identical across faulted and
// clean runs.
func (c *Client) Generations(ctx context.Context, id string, canonical bool) ([]byte, error) {
	return c.fetchCSV(ctx, c.generationsURL(id, canonical))
}

// SearchReport fetches a finished search campaign's summary as raw
// canonical JSON, suitable for byte comparison against a single-process
// reference. Running campaigns return an error (the server answers 202).
func (c *Client) SearchReport(ctx context.Context, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/campaigns/"+id+"/report", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}

func (c *Client) streamCSV(ctx context.Context, url string, pageSize int, w io.Writer) error {
	if pageSize <= 0 {
		pageSize = 256
	}
	sep := "?"
	if strings.Contains(url, "?") {
		sep = "&"
	}
	offset := 0
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s%soffset=%d&limit=%d", url, sep, offset, pageSize), nil)
		if err != nil {
			return err
		}
		resp, err := c.http().Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			err := c.decodeError(resp)
			resp.Body.Close()
			return err
		}
		_, err = io.Copy(w, resp.Body)
		next := resp.Header.Get("X-Next-Offset")
		resp.Body.Close()
		if err != nil {
			return err
		}
		if next == "" {
			return nil
		}
		n, err := strconv.Atoi(next)
		if err != nil || n <= offset {
			return fmt.Errorf("campaignd: bad X-Next-Offset %q", next)
		}
		offset = n
	}
}

func (c *Client) fetchCSV(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, c.decodeError(resp)
	}
	return io.ReadAll(resp.Body)
}
