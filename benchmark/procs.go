package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// procs is the benchmark's fixed GOMAXPROCS: the generator (this
// process) and every child are pinned to it, so results from boxes
// with more cores stay comparable and -compare can refuse the rest.
const procs = 2

// moduleRoot is the directory of the go.mod the benchmark is part of.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	mod := strings.TrimSpace(string(out))
	if mod == "" || mod == os.DevNull {
		return "", fmt.Errorf("the benchmark must run inside the regraph module (no go.mod found)")
	}
	return filepath.Dir(mod), nil
}

// buildBinaries compiles cmd/rgserve and cmd/rgrouter from the source
// of this checkout into binDir. go build leaves an up-to-date binary
// alone, so only the first run in a checkout pays for it.
func buildBinaries(root, binDir string) error {
	cmd := exec.Command("go", "build", "-o", binDir+string(os.PathSeparator), "./cmd/rgserve", "./cmd/rgrouter")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// child is one launched server process.
type child struct {
	cmd  *exec.Cmd
	url  string
	log  *bytes.Buffer
	done chan struct{} // closed once Wait returned
}

// launch starts bin on a free loopback port with the given flags.
func launch(bin string, args ...string) (*child, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	c := &child{url: "http://" + addr, log: &bytes.Buffer{}, done: make(chan struct{})}
	c.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	c.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	c.cmd.Stderr = c.log
	c.cmd.SysProcAttr = childAttr()
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// ready polls /readyz until it answers 200, the process exits, or the
// deadline passes.
func (c *child) ready(client *http.Client, deadline time.Time) error {
	for {
		resp, err := client.Get(c.url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-c.done:
			return fmt.Errorf("%s exited before it was ready:\n%s", filepath.Base(c.cmd.Path), c.log)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not ready in time:\n%s", filepath.Base(c.cmd.Path), c.log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill ends the process at once, as a crash would, and waits for it.
func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.done
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", c.cmd.Process.Pid)
}
