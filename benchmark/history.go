package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// historyPath is the committed trajectory: one line per full run, keyed
// by commit, never rewritten.
const historyPath = "benchmark/history.jsonl"

// resultSet is one full run of every workload — one line of result.jsonl
// and of history.jsonl, and one "set" to compare.
type resultSet struct {
	Commit  string   `json:"commit"`
	Time    string   `json:"time"`
	Seed    int64    `json:"seed"`
	Seconds float64  `json:"seconds"`
	Quick   bool     `json:"quick,omitempty"`
	Host    hostInfo `json:"host"`
	// PacedRates are the frozen offered rates (ops/s) the paced windows
	// ran at.
	PacedRates map[string]float64 `json:"paced_rates"`
	// Workloads maps workload → metric → value: the end-to-end metrics of
	// the untraced run, the per-layer metrics of the traced run, and
	// error_rate over both.
	Workloads map[string]map[string]float64 `json:"workloads"`
	Notes     map[string][]string           `json:"notes,omitempty"`

	attempted, failed map[string]uint64
}

type hostInfo struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Kernel     string `json:"kernel"`
	// WALFilesystem is the filesystem under the scratch WAL directories:
	// fsync cost, and so every kv-write-wal number, depends on it.
	WALFilesystem string `json:"wal_filesystem"`
}

func newResultSet(cfg *runConfig) *resultSet {
	s := &resultSet{
		Commit:     gitCommit(),
		Time:       time.Now().UTC().Format(time.RFC3339),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Quick:      cfg.quick,
		Host:       host(cfg.outDir),
		PacedRates: map[string]float64{},
		Workloads:  map[string]map[string]float64{},
		Notes:      map[string][]string{},
		attempted:  map[string]uint64{},
		failed:     map[string]uint64{},
	}
	for _, w := range workloads {
		s.PacedRates[w.Name] = w.PacedRate
	}
	return s
}

func (s *resultSet) add(r *result) {
	m := s.Workloads[r.Workload]
	if m == nil {
		m = map[string]float64{}
		s.Workloads[r.Workload] = m
	}
	for k, v := range r.Metrics {
		m[k] = v
	}
	s.attempted[r.Workload] += r.Attempted
	s.failed[r.Workload] += r.Failed
	m["error_rate"] = float64(s.failed[r.Workload]) / float64(s.attempted[r.Workload])
	s.Notes[r.Workload] = append(s.Notes[r.Workload], r.Notes...)
}

func (s *resultSet) appendTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readSets reads every line of a result file.
func readSets(path string) ([]resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var sets []resultSet
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var s resultSet
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		sets = append(sets, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return sets, nil
}

// gitCommit names the commit being measured, "-dirty" when the tree has
// uncommitted changes, "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	commit := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		commit += "-dirty"
	}
	return commit
}

func host(walDir string) hostInfo {
	h := hostInfo{Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Kernel: "unknown", WALFilesystem: "unknown"}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	dir := walDir
	for dir != "." && dir != "/" {
		if _, err := os.Stat(dir); err == nil {
			break
		}
		dir = filepath.Dir(dir)
	}
	var fs syscall.Statfs_t
	if syscall.Statfs(dir, &fs) == nil {
		names := map[int64]string{0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
			0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x65735546: "fuse"}
		if n, ok := names[int64(fs.Type)]; ok {
			h.WALFilesystem = n
		} else {
			h.WALFilesystem = fmt.Sprintf("0x%x", fs.Type)
		}
	}
	return h
}
