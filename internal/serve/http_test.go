package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, url string, spec Spec) *http.Response {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeView(t *testing.T, resp *http.Response) View {
	t.Helper()
	defer resp.Body.Close()
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("decoding view: %v", err)
	}
	return v
}

func TestHTTPSubmitPollResult(t *testing.T) {
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts.URL, testSimSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", resp.StatusCode)
	}
	v := decodeView(t, resp)
	if v.ID != 1 {
		t.Fatalf("job id %d, want 1", v.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		r, err := http.Get(fmt.Sprintf("%s/jobs/%d", ts.URL, v.ID))
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d", r.StatusCode)
		}
		vv := decodeView(t, r)
		if vv.State.Terminal() {
			if vv.State != StateDone || vv.Result == nil || vv.Result.Sim == nil {
				t.Fatalf("job ended %s (err=%q) result=%v", vv.State, vv.Error, vv.Result)
			}
			if vv.Spec == nil {
				t.Error("GET /jobs/{id} should include the spec")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// List shows the job without heavy fields.
	r, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var list []View
	if err := json.NewDecoder(r.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].Result != nil || list[0].Spec != nil {
		t.Fatalf("list shape wrong: %+v", list)
	}
}

func TestHTTPBackpressure429(t *testing.T) {
	block := make(chan struct{})
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.QueueCap = 1
		o.testHookBeforeJob = func(*job) { <-block }
	})
	defer s.Close()
	defer close(block)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts.URL, testSimSpec()).Body.Close()
	waitState(t, s, 1, StateRunning)
	postJob(t, ts.URL, testSimSpec()).Body.Close()

	resp := postJob(t, ts.URL, testSimSpec())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 must carry Retry-After")
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Invalid spec -> 400.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"kind":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad spec status %d, want 400", resp.StatusCode)
	}
	// Unknown field -> 400 (typo safety).
	resp, _ = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"kindd":"sim"}`))
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status %d, want 400", resp.StatusCode)
	}
	// Unknown job -> 404.
	resp, _ = http.Get(ts.URL + "/jobs/99")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status %d, want 404", resp.StatusCode)
	}
	// Bad id -> 400.
	resp, _ = http.Get(ts.URL + "/jobs/banana")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id status %d, want 400", resp.StatusCode)
	}

	// Cancel of a finished job -> 409.
	v, _ := s.Submit(testSimSpec())
	waitState(t, s, v.ID, StateDone)
	req, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/jobs/%d", ts.URL, v.ID), nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("cancel finished status %d, want 409", resp.StatusCode)
	}
}

// TestHTTPOversizedSpec413 posts a valid spec padded past maxSpecBytes:
// it must be refused with 413 and a reason before anything is journaled,
// and a normal submission afterwards must still be admitted as job 1.
func TestHTTPOversizedSpec413(t *testing.T) {
	s := openTestService(t, t.TempDir(), nil)
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	spec, err := json.Marshal(testSimSpec())
	if err != nil {
		t.Fatal(err)
	}
	body := append(spec, bytes.Repeat([]byte(" "), maxSpecBytes+1-len(spec))...)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d, want 413", resp.StatusCode)
	}
	if !strings.Contains(e["error"], "exceeds") {
		t.Errorf("413 reason %q should name the limit", e["error"])
	}
	if n := len(s.List()); n != 0 {
		t.Fatalf("oversized spec admitted %d jobs", n)
	}

	resp = postJob(t, ts.URL, testSimSpec())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("normal submit after 413: status %d, want 202", resp.StatusCode)
	}
	if v := decodeView(t, resp); v.ID != 1 {
		t.Fatalf("job id %d, want 1: the refused body must not have been journaled", v.ID)
	}
}

func TestHTTPCancel(t *testing.T) {
	block := make(chan struct{})
	s := openTestService(t, t.TempDir(), func(o *Options) {
		o.Workers = 1
		o.testHookBeforeJob = func(*job) { <-block }
	})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts.URL, testSimSpec()).Body.Close()
	waitState(t, s, 1, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d, want 200", resp.StatusCode)
	}
	close(block)
	waitState(t, s, 1, StateCancelled)
}

// TestHTTPServerSentEvents reads the live stream end to end: an initial
// snapshot event, progress updates, and a final terminal event after
// which the stream closes.
func TestHTTPServerSentEvents(t *testing.T) {
	s := openTestService(t, t.TempDir(), func(o *Options) { o.Workers = 1; o.JobWorkers = 1 })
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	postJob(t, ts.URL, testSweepSpec(4)).Body.Close()
	resp, err := http.Get(ts.URL + "/jobs/1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	var events []View
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var v View
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
			t.Fatalf("bad event payload %q: %v", line, err)
		}
		events = append(events, v)
	}
	// The stream must end by itself (terminal event) without a client
	// disconnect; scanner.Err() == nil means clean EOF.
	if err := scanner.Err(); err != nil {
		t.Fatalf("stream error: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	last := events[len(events)-1]
	if last.State != StateDone {
		t.Fatalf("last event state %s, want done", last.State)
	}
	// Events for an already-terminal job: one snapshot, then EOF.
	resp2, err := http.Get(ts.URL + "/jobs/1/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	n := 0
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("terminal-job stream sent %d events, want 1", n)
	}
}
