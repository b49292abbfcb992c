package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

var nan = math.NaN()

// metric is one declared metric; the lists below must equal the
// end_to_end and per_layer entries of BENCHMARK.json (a test checks).
type metric struct{ name, unit string }

var endToEnd = []metric{
	{"setup_s", "s"},
	{"embed_p50_ms", "ms"},
	{"optimize_p50_ms", "ms"},
	{"path_p50_ms", "ms"},
	{"delta_p50_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"found_frac", "ratio"},
	{"allocs_per_op", "count"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metric{
	{"httpapi.serve_us_p50", "us"},
	{"httpapi.wire_us_p50", "us"},
	{"httpapi.response_bytes", "bytes"},
	{"httpapi.query_cache_hit_ratio", "ratio"},
	{"graphml.query_decode_us_p50", "us"},
	{"graphml.host_decode_ms", "ms"},
	{"expr.compile_us_p50", "us"},
	{"engine.submit_us_p50", "us"},
	{"engine.cache_hit_ratio", "ratio"},
	{"engine.queue_wait_ms_p50", "ms"},
	{"engine.queue_wait_ms_p90", "ms"},
	{"engine.rejected", "count"},
	{"service.embed_ms_p50", "ms"},
	{"service.embed_ms_p90", "ms"},
	{"service.apply_ms_p50", "ms"},
	{"service.apply_ms_p90", "ms"},
	{"service.live_epochs_max", "count"},
	{"index.build_ms", "ms"},
	{"index.apply_ms_p50", "ms"},
	{"core.searches", "count"},
	{"core.problem_us_p50", "us"},
	{"core.filters_ms_p50", "ms"},
	{"core.filters_ms_p90", "ms"},
	{"core.search_ms_p50", "ms"},
	{"core.search_ms_p90", "ms"},
	{"core.optimize_ms_p50", "ms"},
	{"core.optimize_ms_p90", "ms"},
	{"core.path_ms_p50", "ms"},
	{"core.path_ms_p90", "ms"},
	{"core.allocs_per_search", "count"},
	{"core.edge_pairs_eval", "count"},
	{"core.filter_entries", "count"},
	{"core.nodes_visited", "count"},
	{"core.backtracks", "count"},
	{"core.bound_cuts", "count"},
	{"core.witness_hit_ratio", "ratio"},
	{"core.inconclusive_ratio", "ratio"},
	{"coordinator.local_ms_p50", "ms"},
	{"coordinator.cross_ms_p50", "ms"},
	{"coordinator.cross_ms_p90", "ms"},
	{"coordinator.cross_answers", "count"},
	{"coordinator.cross_found_ratio", "ratio"},
	{"coordinator.shard_calls_per_embed", "count"},
	{"coordinator.route_skew", "ratio"},
	{"coordinator.shard_rtt_ms_p50", "ms"},
	{"coordinator.delta_ms_p50", "ms"},
	{"graph.partition_ms", "ms"},
	{"runtime.bytes_per_op", "bytes"},
	{"runtime.gc_pause_ms_per_s", "ms/s"},
	{"trace.embed_p50_ms", "ms"},
	{"trace.spans", "count"},
}

// stamp records where and on what a result was measured, so base-vs-head
// tables are same-machine by construction.
func stamp(cfg config) map[string]any {
	return map[string]any{
		"commit":     commit(cfg.root),
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
	}
}

// commit names the source the daemons were built from: the git commit
// when the tree is a clean repository, the commit plus a digest of the
// sources when it has uncommitted changes (the daemons are built from
// the working tree), and the digest alone outside git.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		head, errHead := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
		dirty, errStatus := exec.Command("git", "-C", root, "status", "--porcelain").Output()
		if errHead == nil && errStatus == nil {
			c := strings.TrimSpace(string(head))
			if len(bytes.TrimSpace(dirty)) > 0 {
				c += "+dirty:" + sourceDigest(root)
			}
			return c
		}
	}
	return sourceDigest(root)
}

// sourceDigest hashes the Go sources and module files under root by
// their root-relative paths, skipping dot directories (.git and the
// build output).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(rel)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
