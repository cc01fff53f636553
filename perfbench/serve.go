package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"inferray"
	"inferray/internal/server"
)

// serveTarget is the LUBM size the serve workloads load: ≈140k input
// triples closing to ≈270k.
const serveTarget = 200_000

// clients is the number of keep-alive connections the serve workloads
// use: the box's two cores.
const clients = 2

// served is a reasoner behind an in-process server on a loopback
// listener.
type served struct {
	r      *inferray.Reasoner
	base   string
	cancel context.CancelFunc
	done   chan error

	stopOnce sync.Once
	stopErr  error
}

func serve(r *inferray.Reasoner) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := server.NewWithConfig(r, server.DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	sv := &served{r: r, base: "http://" + ln.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { sv.done <- s.Serve(ctx, ln) }()
	return sv, nil
}

// stop shuts the server down and waits until Serve has returned. Later
// calls return the first call's result.
func (sv *served) stop() error {
	sv.stopOnce.Do(func() {
		sv.cancel()
		if err := <-sv.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			sv.stopErr = fmt.Errorf("server: %w", err)
		}
	})
	return sv.stopErr
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

// sample is one request as a client saw it. Times are offsets from the
// start of the timed phase; in a closed loop due equals start.
type sample struct {
	idx             int
	due, start, end time.Duration
	ok              bool
	write           bool
	insert          bool
	rows            int
	hit             bool
	gen             uint64
}

func (s sample) latencyMS() float64 { return float64(s.end-s.due) / float64(time.Millisecond) }

// query sends GET /query and counts the solutions in the response.
func query(c *http.Client, base, text string, body *bytes.Buffer, s *sample) error {
	resp, err := c.Get(base + "/query?query=" + url.QueryEscape(text))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, body.Bytes())
	}
	s.hit = resp.Header.Get("X-Inferray-Cache") == "hit"
	s.gen, err = strconv.ParseUint(resp.Header.Get("X-Inferray-Generation"), 10, 64)
	if err != nil {
		return fmt.Errorf("generation header: %w", err)
	}
	s.rows, err = countSolutions(body.Bytes())
	return err
}

// update sends POST /update with a SPARQL update body.
func update(c *http.Client, base, text string, body *bytes.Buffer) error {
	resp, err := c.Post(base+"/update", "application/sparql-update", strings.NewReader(text))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body.Reset()
	if _, err := body.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, body.Bytes())
	}
	return nil
}

// latencies returns the latencies of the samples keep selects, in
// milliseconds. A failed request counts as missing every latency limit:
// it is charged the whole phase length.
func latencies(samples []sample, phase time.Duration, keep func(sample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if !keep(s) {
			continue
		}
		if s.ok {
			out = append(out, s.latencyMS())
		} else {
			out = append(out, float64(phase)/float64(time.Millisecond))
		}
	}
	return out
}

// loadAndMaterialize loads an N-Triples document into r and
// materializes it.
func loadAndMaterialize(r *inferray.Reasoner, nt []byte) error {
	if err := r.LoadNTriples(bytes.NewReader(nt)); err != nil {
		return fmt.Errorf("loading: %w", err)
	}
	if _, err := r.Materialize(); err != nil {
		return fmt.Errorf("materializing: %w", err)
	}
	return nil
}
