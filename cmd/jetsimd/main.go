// Command jetsimd is the long-running multi-tenant jet-simulation
// service: a queued run scheduler with a config-hash result cache in
// front of the solver backends, serving many users' runs concurrently
// on one machine.
//
// Three modes:
//
//	jetsimd -addr :8080            HTTP server (POST /run, POST /batch,
//	                               GET /stats, GET /healthz)
//	jetsimd -batch < jobs.json     serve a stdin job stream locally and
//	                               print results to stdout
//	jetsimd -submit URL < jobs.json  client: POST the stdin jobs to a
//	                               running server's /batch
//
// Jobs are JSON objects mirroring the solver configuration, either as
// one array or streamed back to back (NDJSON works):
//
//	{"id":"a","scenario":"jet","backend":"mp:v5","procs":4,
//	 "nx":125,"nr":50,"steps":500,"reynolds":500}
//
// Results echo the job id, report whether the config-hash cache served
// the run, and fingerprint the momentum field (momentum_sha256) so
// clients can verify that cached replies are bitwise-identical to cold
// runs. Admission control sheds load beyond -queue with HTTP 503 (or
// ok=false in batch mode); duplicate in-flight jobs coalesce onto one
// solver run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"

	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("jetsimd: ")
	var (
		addr   = flag.String("addr", "", "HTTP listen address, e.g. :8080 (server mode)")
		batch  = flag.Bool("batch", false, "serve a JSON job stream from stdin locally, print results to stdout")
		submit = flag.String("submit", "", "client mode: POST the stdin jobs to this server's /batch endpoint")
		slots  = flag.Int("slots", 0, "machine width the scheduler packs runs onto (0 = NumCPU)")
		queue  = flag.Int("queue", 0, "admission queue bound; load beyond it is shed (0 = 256)")
	)
	flag.Parse()

	modes := 0
	for _, on := range []bool{*addr != "", *batch, *submit != ""} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		log.Fatal("pick exactly one mode: -addr (server), -batch (local stdin), or -submit URL (client)")
	}

	switch {
	case *submit != "":
		if err := submitJobs(*submit, os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
	case *batch:
		s := serve.New(serve.Options{Slots: *slots, MaxQueue: *queue})
		defer s.Close()
		if err := runBatch(s, os.Stdin, os.Stdout); err != nil {
			log.Fatal(err)
		}
		log.Print(s.Stats())
	default:
		s := serve.New(serve.Options{Slots: *slots, MaxQueue: *queue})
		defer s.Close()
		log.Printf("serving on %s (%d slots, queue %d)", *addr, s.Stats().Slots, s.Stats().MaxQueue)
		if err := http.ListenAndServe(*addr, s.Handler()); err != nil {
			log.Fatal(err)
		}
	}
}

// readJobs decodes the stdin job stream: one JSON array, or JSON
// objects back to back (NDJSON included). A field the job protocol does
// not define fails the batch, naming the job.
func readJobs(r io.Reader) ([]serve.Job, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	tok, err := dec.Token()
	if errors.Is(err, io.EOF) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading jobs: %w", err)
	}
	var jobs []serve.Job
	if d, ok := tok.(json.Delim); ok && d == '[' {
		for dec.More() {
			var j serve.Job
			if err := dec.Decode(&j); err != nil {
				return nil, fmt.Errorf("job %d: %w", len(jobs), err)
			}
			jobs = append(jobs, j)
		}
		_, err := dec.Token() // closing ]
		return jobs, err
	}
	// Object stream: re-decode from the start. The first token was '{';
	// a fresh decoder over the buffered remainder keeps it simple.
	rest, err := io.ReadAll(io.MultiReader(strings.NewReader("{"), dec.Buffered(), r))
	if err != nil {
		return nil, err
	}
	dec = json.NewDecoder(strings.NewReader(string(rest)))
	dec.DisallowUnknownFields()
	for {
		var j serve.Job
		if err := dec.Decode(&j); errors.Is(err, io.EOF) {
			return jobs, nil
		} else if err != nil {
			return nil, fmt.Errorf("job %d: %w", len(jobs), err)
		}
		jobs = append(jobs, j)
	}
}

// runBatch serves the stdin jobs through the local scheduler
// concurrently and writes results to w in submission order.
func runBatch(s *serve.Scheduler, r io.Reader, w io.Writer) error {
	jobs, err := readJobs(r)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Batch(jobs))
}

// submitJobs POSTs the stdin jobs to a running jetsimd's /batch
// endpoint and copies the response to w.
func submitJobs(url string, r io.Reader, w io.Writer) error {
	jobs, err := readJobs(r)
	if err != nil {
		return err
	}
	body, err := json.Marshal(jobs)
	if err != nil {
		return err
	}
	resp, err := http.Post(strings.TrimRight(url, "/")+"/batch", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	_, err = io.Copy(w, resp.Body)
	return err
}
