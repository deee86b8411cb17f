package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// reply holds the fields of serve.QueryResponse the benchmark reads.
type reply struct {
	Columns     []string `json:"columns"`
	Data        [][]any  `json:"data"`
	TotalRows   int      `json:"total_rows"`
	WallMS      float64  `json:"wall_ms"`
	QueueWaitMS float64  `json:"queue_wait_ms"`
	PlanCache   string   `json:"plan_cache"`
}

// maxRows is the server's default cap on inlined result rows.
const maxRows = 100

// client is one closed-loop caller on its own keep-alive connection.
type client struct {
	http *http.Client
	url  string
}

func newClient(serverURL string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: 60 * time.Second},
		url:  serverURL + "/query",
	}
}

// requestBody is the JSON body of POST /query for a SQL text: literals
// inlined, no backend field, default max_rows.
func requestBody(sqlText string) []byte {
	body, err := json.Marshal(map[string]string{"sql": sqlText})
	if err != nil {
		panic(err) // a map of strings always encodes
	}
	return body
}

// query posts one SQL text and returns the decoded reply and the latency from
// request write to the last body byte. Any error means the request failed:
// transport error, timeout, non-200 status or a malformed body.
func (c *client) query(sqlText string) (*reply, time.Duration, error) {
	body := requestBody(sqlText)
	start := time.Now()
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	raw, err := io.ReadAll(resp.Body)
	latency := time.Since(start)
	resp.Body.Close()
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %.300s", resp.StatusCode, raw)
	}
	var rep reply
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, 0, fmt.Errorf("malformed body: %w", err)
	}
	if len(rep.Columns) == 0 || len(rep.Data) != min(rep.TotalRows, maxRows) {
		return nil, 0, fmt.Errorf("malformed body: %d columns, %d of %d rows inlined", len(rep.Columns), len(rep.Data), rep.TotalRows)
	}
	return &rep, latency, nil
}

// sample is one timed request that succeeded.
type sample struct {
	shape       int
	latencyMS   float64
	wallMS      float64
	queueWaitMS float64
}

// window is the outcome of one timed closed-loop window.
type window struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	cacheHits int     // replies whose plan_cache field says hit
	seconds   float64 // first request sent → last reply read
	cpuS      float64 // inkserve user+system CPU over the window
}

// newStreams builds one request stream per client of the workload.
func newStreams(w workload, shapes []shape, seed int64) []*stream {
	streams := make([]*stream, w.clients)
	for i := range streams {
		streams[i] = newStream(w, shapes, seed, i)
	}
	return streams
}

// runWindow drives the server for d with one closed-loop client per stream:
// each sends its next request once the previous body is fully read and starts
// no request after d has passed. A workload is defined by whether its requests
// hit the plan cache, so a reply that says otherwise counts as failed.
func runWindow(srv *server, w workload, streams []*stream, d time.Duration) (*window, error) {
	cpu0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	var (
		mu  sync.Mutex
		win window
		wg  sync.WaitGroup
	)
	start := time.Now()
	for _, st := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(srv.url)
			defer c.http.CloseIdleConnections()
			var mine window
			for time.Since(start) < d {
				shapeIdx, text := st.next()
				mine.attempted++
				rep, latency, err := c.query(text)
				if err == nil {
					hit := rep.PlanCache == "hit"
					if hit {
						mine.cacheHits++
					}
					if hit != w.hit {
						err = fmt.Errorf("plan_cache is %q; every request of %s must have hit=%v", rep.PlanCache, w.name, w.hit)
					}
				}
				if err != nil {
					mine.failed++
					if mine.firstErr == nil {
						mine.firstErr = fmt.Errorf("%w\n%s", err, text)
					}
					continue
				}
				mine.samples = append(mine.samples, sample{
					shape: shapeIdx, latencyMS: ms(latency), wallMS: rep.WallMS,
					queueWaitMS: rep.QueueWaitMS,
				})
			}
			mu.Lock()
			defer mu.Unlock()
			win.samples = append(win.samples, mine.samples...)
			win.attempted += mine.attempted
			win.failed += mine.failed
			win.cacheHits += mine.cacheHits
			if win.firstErr == nil {
				win.firstErr = mine.firstErr
			}
		}()
	}
	wg.Wait()
	win.seconds = time.Since(start).Seconds()
	cpu1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	win.cpuS = cpu1 - cpu0
	return &win, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// warmUp fills the server's caches before timing, drawing from the clients'
// own streams. A hit workload executes every shape until the plan cache holds
// one instance of it per client: the cache leases an instance to one request
// at a time and every miss builds one, so a shape has as many instances as it
// had misses, and the clients send it together until it has missed once per
// client. After that no request of the window finds all instances leased. The
// ad-hoc workload runs its traffic for adhocWarmupShare of the window, and the
// timed window carries on from there.
func warmUp(srv *server, w workload, streams []*stream, windowSeconds float64) error {
	clients := make([]*client, len(streams))
	for i := range clients {
		clients[i] = newClient(srv.url)
		defer clients[i].http.CloseIdleConnections()
	}
	send := func(c *client, text string) (*reply, error) {
		rep, _, err := c.query(text)
		if err != nil {
			return nil, fmt.Errorf("warm-up: %w\n%s", err, text)
		}
		return rep, nil
	}
	if !w.hit {
		for start := time.Now(); time.Since(start).Seconds() < adhocWarmupShare*windowSeconds; {
			_, text := streams[0].next()
			if _, err := send(clients[0], text); err != nil {
				return err
			}
		}
		return nil
	}
	for _, s := range streams[0].shapes {
		misses := 0
		for round := 0; misses < len(clients); round++ {
			if round == warmUpRounds {
				return fmt.Errorf("warm-up: a %s shape has %d plan-cache instances after %d rounds, want %d", s.family, misses, round, len(clients))
			}
			type outcome struct {
				rep *reply
				err error
			}
			outcomes := make(chan outcome, len(clients))
			for i, c := range clients {
				text := s.sql(streams[i].r)
				go func() {
					rep, err := send(c, text)
					outcomes <- outcome{rep, err}
				}()
			}
			var failed error
			for range clients {
				if o := <-outcomes; o.err != nil {
					failed = o.err
				} else if o.rep.PlanCache != "hit" {
					misses++
				}
			}
			if failed != nil {
				return failed
			}
		}
	}
	return nil
}
