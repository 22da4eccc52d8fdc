package server

import (
	"net/http"
	"strconv"
	"sync"

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

// The two catalogues are pure functions of what the process was built
// with — the workload registry is filled in init only (ByName resolves an
// unregistered tiled kernel without registering it) and the viable list
// is a constant of the area model — so each body is encoded once.
var (
	workloadsBody = sync.OnceValue(func() []byte { return encodeJSON(workloadsListing()) })
	designsBody   = sync.OnceValue(func() []byte { return encodeJSON(designsListing(design.Viable())) })
)

func workloadsListing() map[string]any {
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
	return map[string]any{"count": len(rows), "workloads": rows}
}

func designsListing(points []design.Point) map[string]any {
	rows := make([]map[string]any, len(points))
	for i, pt := range points {
		rows[i] = map[string]any{
			"arch": pt.Arch, "arch_string": pt.Arch.String(),
			"area_mm2": pt.Area, "total_pes": pt.Arch.TotalPEs(),
			"capacity": pt.Arch.Capacity(),
		}
	}
	return map[string]any{"count": len(rows), "designs": rows}
}

func (s *Server) handleWorkloads(w http.ResponseWriter, r *http.Request) {
	writeEncoded(w, workloadsBody())
}

func (s *Server) handleDesigns(w http.ResponseWriter, r *http.Request) {
	if maxStr := r.URL.Query().Get("max"); maxStr != "" {
		n, err := strconv.Atoi(maxStr)
		if err != nil || n < 1 {
			writeErr(w, http.StatusBadRequest, "bad max %q", maxStr)
			return
		}
		if points := design.Viable(); n < len(points) {
			writeJSON(w, http.StatusOK, designsListing(design.Subsample(points, n)))
			return
		}
	}
	writeEncoded(w, designsBody())
}
