package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// envStamp describes the machine and the code under test.
func envStamp(root string) map[string]string {
	s := map[string]string{
		"cpu":        cpuModel(),
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"kernel":     readTrim("/proc/sys/kernel/osrelease"),
		"source":     sourceHash(root),
	}
	// gksd runs with the environment's GOMAXPROCS, or the CPU count.
	s["gksd_gomaxprocs"] = os.Getenv("GOMAXPROCS")
	if s["gksd_gomaxprocs"] == "" {
		s["gksd_gomaxprocs"] = strconv.Itoa(runtime.NumCPU())
	}
	s["commit"], s["dirty"] = "none", "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		s["commit"] = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil {
			s["dirty"] = strconv.FormatBool(len(st) > 0)
		}
	}
	return s
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// sourceHash digests every Go source and module file of the checkout
// outside .bench_build, so runs of a checkout that is not a git
// repository still name the code they measured.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == ".bench_build" || n == ".git" {
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
		rel, _ := filepath.Rel(root, path) // path is under root
		io.WriteString(h, rel+"\n")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
