// Package viz renders kSPR results in 2-dimensional (transformed)
// preference spaces as standalone SVG documents — the plots of the paper's
// Figures 1(b) and 9. Stdlib only; geometry comes straight from the
// finalized region vertices.
package viz

import (
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
)

// Options control the rendering.
type Options struct {
	// Size is the canvas edge in pixels (default 480).
	Size int
	// Title is drawn above the plot.
	Title string
	// XLabel / YLabel name the two weight axes (default w1 / w2).
	XLabel, YLabel string
}

// rankPalette colours regions by rank (best rank = strongest).
var rankPalette = []string{
	"#1a9850", "#66bd63", "#a6d96a", "#d9ef8b", "#fee08b",
	"#fdae61", "#f46d43", "#d73027",
}

// WriteSVG renders the result's regions. Only 2-d transformed spaces are
// supported (d=3 data); other dimensionalities return an error.
func WriteSVG(w io.Writer, res *core.Result, opts Options) error {
	if res == nil {
		return fmt.Errorf("viz: nil result")
	}
	if res.Space != core.Transformed {
		return fmt.Errorf("viz: only transformed-space results can be plotted")
	}
	if len(res.Focal) != 3 {
		return fmt.Errorf("viz: data is %d-dimensional, need 3", len(res.Focal))
	}
	if opts.Size <= 0 {
		opts.Size = 480
	}
	if opts.XLabel == "" {
		opts.XLabel = "w1"
	}
	if opts.YLabel == "" {
		opts.YLabel = "w2"
	}
	const margin = 40
	plot := float64(opts.Size - 2*margin)
	// Preference-space (0,0)-(1,1) maps to the plot area; y grows upward.
	toX := func(x float64) float64 { return margin + x*plot }
	toY := func(y float64) float64 { return float64(opts.Size) - margin - y*plot }

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n",
		opts.Size, opts.Size, opts.Size, opts.Size)
	fmt.Fprintf(w, `<rect width="%d" height="%d" fill="white"/>`+"\n", opts.Size, opts.Size)

	// The simplex outline: triangle (0,0) (1,0) (0,1).
	fmt.Fprintf(w, `<polygon points="%.1f,%.1f %.1f,%.1f %.1f,%.1f" fill="#f7f7f7" stroke="#999" stroke-dasharray="4 3"/>`+"\n",
		toX(0), toY(0), toX(1), toY(0), toX(0), toY(1))

	for _, reg := range res.Regions {
		drawRegion(w, reg, toX, toY, fillForRank(reg.Rank, res.K))
	}

	// Axes.
	fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n",
		toX(0), toY(0), toX(1.02), toY(0))
	fmt.Fprintf(w, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="black"/>`+"\n",
		toX(0), toY(0), toX(0), toY(1.02))
	fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-size="12">%s</text>`+"\n",
		toX(0.95), toY(-0.06), xmlEscape(opts.XLabel))
	fmt.Fprintf(w, `<text x="%.1f" y="%.1f" font-size="12">%s</text>`+"\n",
		toX(-0.08), toY(0.97), xmlEscape(opts.YLabel))
	if opts.Title != "" {
		fmt.Fprintf(w, `<text x="%d" y="20" font-size="14" text-anchor="middle">%s</text>`+"\n",
			opts.Size/2, xmlEscape(opts.Title))
	}
	fmt.Fprintln(w, `</svg>`)
	return nil
}

func fillForRank(rank, k int) string {
	if k <= 1 {
		return rankPalette[0]
	}
	if rank < 1 {
		rank = 1
	}
	if rank > k {
		rank = k
	}
	// rank 1 -> strongest colour, rank k -> weakest.
	idx := (rank - 1) * (len(rankPalette) - 1) / (k - 1)
	return rankPalette[idx]
}

func drawRegion(w io.Writer, reg core.Region, toX, toY func(float64) float64, fill string) {
	verts := reg.Vertices
	if len(verts) < 3 {
		// No finalized geometry: draw the witness as a dot.
		if reg.Witness != nil {
			fmt.Fprintf(w, `<circle cx="%.1f" cy="%.1f" r="2.5" fill="%s"/>`+"\n",
				toX(reg.Witness[0]), toY(reg.Witness[1]), fill)
		}
		return
	}
	ordered := angularOrder(verts)
	points := ""
	for _, v := range ordered {
		points += fmt.Sprintf("%.2f,%.2f ", toX(v[0]), toY(v[1]))
	}
	fmt.Fprintf(w, `<polygon points="%s" fill="%s" fill-opacity="1.00" stroke="#333" stroke-width="0.6"/>`+"\n",
		points, fill)
}

// angularOrder sorts polygon vertices around their centroid so the SVG
// polygon is simple (finalized vertex sets carry no ordering).
func angularOrder(verts []geom.Vector) []geom.Vector {
	var cx, cy float64
	for _, v := range verts {
		cx += v[0]
		cy += v[1]
	}
	cx /= float64(len(verts))
	cy /= float64(len(verts))
	out := append([]geom.Vector(nil), verts...)
	sort.Slice(out, func(i, j int) bool {
		return math.Atan2(out[i][1]-cy, out[i][0]-cx) < math.Atan2(out[j][1]-cy, out[j][0]-cx)
	})
	return out
}

func xmlEscape(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '<':
			out = append(out, "&lt;"...)
		case '>':
			out = append(out, "&gt;"...)
		case '&':
			out = append(out, "&amp;"...)
		case '"':
			out = append(out, "&quot;"...)
		default:
			out = append(out, s[i])
		}
	}
	return string(out)
}
