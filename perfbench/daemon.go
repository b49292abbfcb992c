package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one running netembedd process.
type daemon struct {
	name string
	addr string // host:port
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once the process has been reaped
}

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the daemon binds it; nothing else on the loopback
// competes for ports during a run.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("pick port: %w", err)
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// startDaemon spawns netembedd with args plus -listen on a fresh port;
// its log goes to logPath.
func startDaemon(bin, name, logPath string, args ...string) (*daemon, error) {
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	cmd := exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, addr: addr, cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a daemon we stop is not interesting
		logf.Close()
		close(d.done)
	}()
	return d, nil
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

// waitReady polls GET /healthz until the daemon answers 200.
func (d *daemon) waitReady(client *http.Client, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		resp, err := client.Get(d.url("/healthz"))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.done:
			return fmt.Errorf("%s exited during start-up (see %s)", d.name, d.log.Name())
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready after %v", d.name, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it outlives the grace period.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // already exited is fine
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(d.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// cluster is the set of daemons one workload runs against: a single
// daemon, or a coordinator in front of two region shards.
type cluster struct {
	front  *daemon   // the daemon the load is sent to
	shards []*daemon // region shards (federated) or the single daemon
	all    []*daemon
}

func (c *cluster) stop() {
	// Coordinator first, so it never sees its shards vanish mid-request.
	for i := len(c.all) - 1; i >= 0; i-- {
		c.all[i].stop()
	}
}

// peakRSSMB sums the high-water resident sets of the cluster's daemons.
func (c *cluster) peakRSSMB() (float64, error) {
	var sum float64
	for _, d := range c.all {
		mb, err := d.peakRSSMB()
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// boot starts the workload's daemons and returns once every one serves;
// the second result is the wall time from the first spawn to ready.
func boot(bin, outDir, hostPath string, federated bool, client *http.Client) (*cluster, time.Duration, error) {
	start := time.Now()
	c := &cluster{}
	fail := func(err error) (*cluster, time.Duration, error) {
		c.stop()
		return nil, 0, err
	}
	logPath := func(name string) string { return filepath.Join(outDir, name+".log") }
	if !federated {
		d, err := startDaemon(bin, "netembedd", logPath("netembedd"), "-host", hostPath)
		if err != nil {
			return fail(err)
		}
		c.all = append(c.all, d)
		if err := d.waitReady(client, 60*time.Second); err != nil {
			return fail(err)
		}
		c.front, c.shards = d, []*daemon{d}
		return c, time.Since(start), nil
	}
	var peers []string
	for _, region := range []string{"west", "east"} {
		d, err := startDaemon(bin, "shard-"+region, logPath("shard-"+region),
			"-host", hostPath, "-shard-name", region, "-shard-region", region, "-region-attr", regionAttr)
		if err != nil {
			return fail(err)
		}
		c.all = append(c.all, d)
		c.shards = append(c.shards, d)
		peers = append(peers, region+"="+d.addr)
	}
	for _, d := range c.shards {
		if err := d.waitReady(client, 60*time.Second); err != nil {
			return fail(err)
		}
	}
	coord, err := startDaemon(bin, "coordinator", logPath("coordinator"),
		"-federate", "-peers", strings.Join(peers, ","), "-host", hostPath,
		"-region-attr", regionAttr, "-timeout", "15s")
	if err != nil {
		return fail(err)
	}
	c.all = append(c.all, coord)
	if err := coord.waitReady(client, 60*time.Second); err != nil {
		return fail(err)
	}
	c.front = coord
	return c, time.Since(start), nil
}
