package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// machine is recorded with every run, so a figure is never read apart
// from the hardware that produced it.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	CPUModel   string `json:"cpuModel"`
	DataDirFS  string `json:"dataDirFs"`

	// The calibration probe: a noisy disk or a busy neighbour shows here
	// before it shows in the workload's figures.
	FsyncMsP50 float64 `json:"fsyncMsP50"`
	FsyncMsMax float64 `json:"fsyncMsMax"`
	CPULoopMs  float64 `json:"cpuLoopMs"`
}

func probeMachine(dataDir string) machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		DataDirFS:  filesystemOf(dataDir),
	}
	fs := fsyncProbe(dataDir, 20)
	m.FsyncMsP50, m.FsyncMsMax = fs.median(), fs.max()
	m.CPULoopMs = cpuProbe()
	return m
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

// filesystemOf returns the type of the filesystem holding dir: the
// mount in /proc/mounts with the longest prefix of its path.
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fsType := -1, "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mnt := fields[1]
		if (abs == mnt || strings.HasPrefix(abs, strings.TrimSuffix(mnt, "/")+"/")) && len(mnt) > best {
			best, fsType = len(mnt), fields[2]
		}
	}
	return fsType
}

// fsyncProbe times n 4 KiB append+fsync pairs in dir, in ms.
func fsyncProbe(dir string, n int) samples {
	var out samples
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return out
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := f.Write(buf); err != nil {
			return out
		}
		if err := f.Sync(); err != nil {
			return out
		}
		out.addDur(time.Since(t0), time.Millisecond)
	}
	return out
}

// cpuProbe times a fixed integer loop, in ms.
func cpuProbe() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	probeSink = x
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

var probeSink uint64

// peakRSSMB is the process's peak resident set, in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTime is the CPU time this process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuStat returns the steal and total jiffies of /proc/stat's cpu line.
// Steal is time the hypervisor gave this machine's CPUs to someone else:
// a busy neighbour shows there.
func cpuStat() (steal, total uint64) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0
	}
	return parseCPUStat(sc.Text())
}

// parseCPUStat reads the aggregate "cpu" line of /proc/stat: user, nice,
// system, idle, iowait, irq, softirq, steal, then guest times.
func parseCPUStat(line string) (steal, total uint64) {
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, v := range fields[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		// Guest time is already counted in user time.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
