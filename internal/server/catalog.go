package server

import (
	"fmt"
	"net/http"

	"wavescalar/internal/design"
	"wavescalar/internal/workload"
)

// workloadRow is one entry of the structured GET /v1/workloads listing.
// Tiled kernels additionally expose their decomposed tiling parameters,
// so clients can enumerate the tiling axes of the design space without
// parsing names.
type workloadRow struct {
	Name   string      `json:"name"`
	Suite  string      `json:"suite"`
	Scales []string    `json:"scales"`
	Tiling *tilingInfo `json:"tiling,omitempty"`
}

type tilingInfo struct {
	Family string `json:"family"` // "gemm" or "conv"
	Order  string `json:"order"`  // dataflow order, e.g. "os", "ws"
	Tile   [3]int `json:"tile"`   // gemm: Tm×Tn×Tk; conv: Tx×Ty×Tc
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	all := workload.All()
	rows := make([]workloadRow, len(all))
	for i, wl := range all {
		rows[i] = workloadRow{
			Name: wl.Name, Suite: wl.Suite.String(),
			Scales: []string{"tiny", "small", "medium"},
		}
		if family, order, tile, ok := workload.TiledInfo(wl.Name); ok {
			rows[i].Tiling = &tilingInfo{Family: family, Order: order, Tile: tile}
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(rows), "workloads": rows})
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	points := design.Viable()
	if maxStr := r.URL.Query().Get("max"); maxStr != "" {
		var n int
		if _, err := fmt.Sscanf(maxStr, "%d", &n); err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "bad max %q", maxStr)
			return
		}
		if n < len(points) {
			points = subsample(points, n)
		}
	}
	rows := make([]map[string]any, len(points))
	for i, pt := range points {
		rows[i] = map[string]any{
			"arch": pt.Arch, "arch_string": pt.Arch.String(),
			"area_mm2": pt.Area, "total_pes": pt.Arch.TotalPEs(),
			"capacity": pt.Arch.Capacity(),
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(rows), "designs": rows})
}
