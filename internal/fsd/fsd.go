// Package fsd exposes a simulated host's virtual sysfs over HTTP — the
// deployment shape of the userspace-filesystem prior art (LXCFS mounts a
// FUSE tree into each container; arvfsd serves the same pseudo-files per
// container over a local socket). It is the demonstrator for how the
// per-container resource views would be consumed by unmodified tooling.
//
// Routes:
//
//	GET /containers                      JSON index of containers and
//	                                     their effective resources
//	GET /containers/{name}/{path...}     a pseudo-file through the
//	                                     container's virtual view, e.g.
//	                                     /containers/web/proc/meminfo
//	GET /host/{path...}                  the same through the host view
//	GET /cgroups/{name}/{file}           the cgroup control files
//	                                     (cpu.shares, memory.stat, ...)
//	GET /healthz                         liveness
//
// Every GET resolves against the ns_monitor's current ViewSnapshot
// (DESIGN.md §11) with no locking: readers load one atomic pointer and
// render from the immutable struct, so requests never block each other
// or the simulation's write path. Each response carries the snapshot
// version in the X-Arv-Snapshot-Version header; versions are monotone
// across any single connection's requests. The server's mutex guards
// only simulation stepping (Pump / Lock / Unlock).
//
// A Pump advances the simulation in near real time while the server
// runs, so repeated reads observe the adapting views.
package fsd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"arv/internal/host"
	"arv/internal/sysfs"
	"arv/internal/sysns"
)

// Server serves one host's views. Reads are lock-free and safe for any
// concurrency; the mutex serializes simulation steppers only.
type Server struct {
	mu    sync.Mutex // guards h stepping (Pump, Lock/Unlock), never reads
	h     *host.Host
	reads atomic.Uint64
}

// NewServer wraps a simulated host. It warms the monitor's snapshot
// publication (flushing anything that happened before the server
// existed), so the first request already sees the current topology.
func NewServer(h *host.Host) *Server {
	h.Monitor.WarmSnapshot()
	return &Server{h: h}
}

// Lock exposes the simulation lock for external steppers (the Pump and
// tests driving time manually). Read handlers never take it.
func (s *Server) Lock() { s.mu.Lock() }

// Unlock releases the simulation lock taken by Lock.
func (s *Server) Unlock() { s.mu.Unlock() }

// Reads returns how many GETs the server has answered. It is exact and
// safe to read concurrently (the benchmarks use it).
func (s *Server) Reads() uint64 { return s.reads.Load() }

// snapshot loads the current view snapshot and stamps its version on
// the response — the one atomic load each request performs.
func (s *Server) snapshot(w http.ResponseWriter) *sysns.ViewSnapshot {
	snap := s.h.Monitor.Snapshot()
	w.Header().Set("X-Arv-Snapshot-Version", strconv.FormatUint(snap.Version, 10))
	s.reads.Add(1)
	return snap
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		s.snapshot(w)
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /containers", s.handleIndex)
	mux.HandleFunc("GET /containers/{name}/", s.handleContainerFile)
	mux.HandleFunc("GET /host/", s.handleHostFile)
	mux.HandleFunc("GET /cgroups/{name}/{file}", s.handleCgroupFile)
	return mux
}

// containerInfo is the JSON shape of one index entry.
type containerInfo struct {
	Name            string `json:"name"`
	State           string `json:"state"`
	EffectiveCPU    int    `json:"effective_cpu"`
	CPULower        int    `json:"cpu_lower"`
	CPUUpper        int    `json:"cpu_upper"`
	EffectiveMemory int64  `json:"effective_memory_bytes"`
	ResidentMemory  int64  `json:"resident_bytes"`
	SwappedMemory   int64  `json:"swapped_bytes"`
	Pod             string `json:"pod,omitempty"`
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot(w)
	var out []containerInfo
	for i := range snap.Containers {
		c := &snap.Containers[i]
		out = append(out, containerInfo{
			Name:            c.Name,
			State:           c.State,
			EffectiveCPU:    c.EffectiveCPU,
			CPULower:        c.LowerCPU,
			CPUUpper:        c.UpperCPU,
			EffectiveMemory: int64(c.EffectiveMemory),
			ResidentMemory:  int64(c.Resident),
			SwappedMemory:   int64(c.Swapped),
			Pod:             c.Pod,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleContainerFile(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	path := strings.TrimPrefix(r.URL.Path, "/containers/"+name)

	snap := s.snapshot(w)
	c := snap.Container(name) // name-indexed: O(1) per request
	if c == nil {
		http.Error(w, "no such container", http.StatusNotFound)
		return
	}
	serveFile(w, sysfs.SnapView{C: c, Host: &snap.Host}, path)
}

func (s *Server) handleHostFile(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshot(w)
	serveFile(w, sysfs.SnapHostView{H: &snap.Host}, strings.TrimPrefix(r.URL.Path, "/host"))
}

// serveFile renders one pseudo-file through a snapshot-backed view — a
// pure function, no lock.
func serveFile(w http.ResponseWriter, view sysfs.View, path string) {
	path = strings.TrimSuffix(path, "/")
	if path == "" {
		http.Error(w, "missing pseudo-file path", http.StatusBadRequest)
		return
	}
	content, err := view.ReadFile(path)
	if err != nil {
		if _, ok := err.(sysfs.ErrNoEnt); ok {
			http.Error(w, err.Error(), http.StatusNotFound)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, content)
}

func (s *Server) handleCgroupFile(w http.ResponseWriter, r *http.Request) {
	name, file := r.PathValue("name"), r.PathValue("file")
	snap := s.snapshot(w)
	cg := snap.Cgroup(name)
	if cg == nil {
		http.Error(w, "no such cgroup", http.StatusNotFound)
		return
	}
	content, err := sysfs.ReadCgroupView(cg, file)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, content)
}

// Pump advances the simulation in near real time: every wall interval it
// steps the host by the same amount of virtual time, under the server's
// lock. Stop the pump by calling the returned stop function; it blocks
// until the pump goroutine has exited, so callers may tear the host
// down afterwards.
func (s *Server) Pump(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				s.mu.Lock()
				s.h.Run(interval)
				s.mu.Unlock()
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(done) })
		<-exited
	}
}
