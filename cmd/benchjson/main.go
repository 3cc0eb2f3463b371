// Command benchjson folds `go test -bench -benchmem` outputs — one serial
// (CF_PARALLEL=1) and one parallel (CF_PARALLEL=0 → GOMAXPROCS) — into a
// single JSON perf record (BENCH_N.json). The record is the repo's
// perf trajectory: each PR appends a file, so regressions in wall-clock or
// allocation discipline are visible in review rather than discovered later.
//
// Usage:
//
//	benchjson -serial serial.txt -parallel parallel.txt \
//	    -prev BENCH_9.json -out BENCH_10.json
//
// -prev points at the previous committed record: each benchmark present in
// both records gains speedup_vs_prev (prev serial / current serial) and
// allocs_vs_prev (current − prev allocs/op), and the record totals gain
// total_speedup_vs_prev over the matched set. Times compare whatever hosts
// produced the two records; allocs/op is host-independent. Fields of older
// records that this version no longer writes are ignored.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"time"
)

// benchLine matches `BenchmarkName-8  4  123456 ns/op  7890 B/op  12 allocs/op`
// (the -benchmem columns are optional).
var benchLine = regexp.MustCompile(
	`^Benchmark(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

type sample struct {
	NsOp     float64
	BOp      int64
	AllocsOp int64
}

func parse(path string) (map[string]sample, []string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	out := map[string]sample{}
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		s := sample{}
		s.NsOp, _ = strconv.ParseFloat(m[2], 64)
		if m[3] != "" {
			s.BOp, _ = strconv.ParseInt(m[3], 10, 64)
			s.AllocsOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if _, seen := out[m[1]]; !seen {
			order = append(order, m[1])
		}
		out[m[1]] = s
	}
	return out, order, sc.Err()
}

type entry struct {
	Name             string  `json:"name"`
	SerialNsOp       float64 `json:"serial_ns_op"`
	ParallelNsOp     float64 `json:"parallel_ns_op,omitempty"`
	SpeedupParallel  float64 `json:"speedup_parallel,omitempty"`
	SerialBOp        int64   `json:"serial_b_op"`
	SerialAllocsOp   int64   `json:"serial_allocs_op"`
	ParallelAllocsOp int64   `json:"parallel_allocs_op,omitempty"`
	// SpeedupVsPrev compares this record's serial time against the same
	// benchmark in the -prev record (prev / current; >1 is faster now).
	// AllocsVsPrev is the allocs/op delta (current − prev; negative is
	// leaner). Both are wall-clock-honest: they compare runs on whatever
	// hosts produced the two records, so read them alongside the notes.
	SpeedupVsPrev float64 `json:"speedup_vs_prev,omitempty"`
	AllocsVsPrev  *int64  `json:"allocs_vs_prev,omitempty"`
}

type record struct {
	Schema        string  `json:"schema"`
	GeneratedAt   string  `json:"generated_at"`
	GoVersion     string  `json:"go_version"`
	HostCores     int     `json:"host_cores"`
	Workers       int     `json:"parallel_workers"`
	Note          string  `json:"note,omitempty"`
	PrevRecord    string  `json:"prev_record,omitempty"`
	Benchmarks    []entry `json:"benchmarks"`
	TotalSerial   float64 `json:"total_serial_ns"`
	TotalParall   float64 `json:"total_parallel_ns"`
	TotalSpeedup  float64 `json:"total_speedup"`
	SpeedupVsPrev float64 `json:"total_speedup_vs_prev,omitempty"`
}

// loadPrev reads an earlier record for speedup_vs_prev comparisons.
func loadPrev(path string) (*record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(data, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}

func main() {
	serialPath := flag.String("serial", "", "bench output with CF_PARALLEL=1")
	parallelPath := flag.String("parallel", "", "bench output with CF_PARALLEL unset (GOMAXPROCS workers)")
	out := flag.String("out", "", "output JSON path (stdout if empty)")
	note := flag.String("note", "", "free-form context (host caveats, scale)")
	prevPath := flag.String("prev", "", "previous BENCH_*.json to compute speedup_vs_prev against")
	flag.Parse()
	if *serialPath == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -serial is required")
		os.Exit(2)
	}
	serial, order, err := parse(*serialPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	parallel := map[string]sample{}
	if *parallelPath != "" {
		parallel, _, err = parse(*parallelPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
	}
	var prev *record
	prevByName := map[string]entry{}
	if *prevPath != "" {
		prev, err = loadPrev(*prevPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		for _, e := range prev.Benchmarks {
			prevByName[e.Name] = e
		}
	}
	rec := record{
		Schema:      "cornflakes-bench/v1",
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		HostCores:   runtime.NumCPU(),
		Workers:     runtime.GOMAXPROCS(0),
		Note:        *note,
	}
	prevSerialMatched, curSerialMatched := 0.0, 0.0
	for _, name := range order {
		s := serial[name]
		e := entry{
			Name:           name,
			SerialNsOp:     s.NsOp,
			SerialBOp:      s.BOp,
			SerialAllocsOp: s.AllocsOp,
		}
		rec.TotalSerial += s.NsOp
		if p, ok := parallel[name]; ok {
			e.ParallelNsOp = p.NsOp
			e.ParallelAllocsOp = p.AllocsOp
			if p.NsOp > 0 {
				e.SpeedupParallel = s.NsOp / p.NsOp
			}
			rec.TotalParall += p.NsOp
		}
		if pe, ok := prevByName[name]; ok && pe.SerialNsOp > 0 && s.NsOp > 0 {
			e.SpeedupVsPrev = pe.SerialNsOp / s.NsOp
			d := s.AllocsOp - pe.SerialAllocsOp
			e.AllocsVsPrev = &d
			prevSerialMatched += pe.SerialNsOp
			curSerialMatched += s.NsOp
		}
		rec.Benchmarks = append(rec.Benchmarks, e)
	}
	if rec.TotalParall > 0 {
		rec.TotalSpeedup = rec.TotalSerial / rec.TotalParall
	}
	// Compare only the benchmarks present in both records, so a renamed
	// or added benchmark can't skew the ratio.
	if prev != nil && curSerialMatched > 0 {
		rec.PrevRecord = *prevPath
		rec.SpeedupVsPrev = prevSerialMatched / curSerialMatched
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks, total speedup x%.2f", *out, len(rec.Benchmarks), rec.TotalSpeedup)
	if rec.SpeedupVsPrev > 0 {
		fmt.Printf(", x%.2f vs %s", rec.SpeedupVsPrev, rec.PrevRecord)
	}
	fmt.Println(")")
}
