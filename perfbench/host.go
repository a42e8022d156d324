package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// provenanceJSON is recorded with every result: the host, the inputs
// and the code that produced the numbers.
type provenanceJSON struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	CPU        string  `json:"cpu"`
	// Commit is the git commit when run.sh finds one; SourceSHA256
	// identifies the source tree either way.
	Commit       string `json:"commit"`
	SourceSHA256 string `json:"source_sha256"`
}

func provenance(o options) provenanceJSON {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return provenanceJSON{
		Workload:     o.workload,
		Seed:         o.seed,
		Seconds:      o.seconds.Seconds(),
		Trace:        o.trace,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPU:          cpuModel(),
		Commit:       commit,
		SourceSHA256: sourceDigest(o.root),
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the path and contents of every Go source and
// module file under root, skipping dot-directories (.git, .bench_build).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
