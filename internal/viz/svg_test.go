package viz

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/rtree"
)

func renderResult(t *testing.T) (*core.Result, string) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Independent, 80, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rtree.Build(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	focal := tr.Skyline()[0]
	res, err := core.Run(tr, ds.Records[focal], focal, core.Options{
		K: 4, Algorithm: core.LPCTA, FinalizeGeometry: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSVG(&buf, res, Options{Title: "test <plot>", XLabel: "value", YLabel: "service"}); err != nil {
		t.Fatal(err)
	}
	return res, buf.String()
}

func TestWriteSVGBasics(t *testing.T) {
	res, svg := renderResult(t)
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(strings.TrimSpace(svg), "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	if strings.Count(svg, "<polygon") < len(res.Regions) {
		t.Fatalf("only %d polygons for %d regions", strings.Count(svg, "<polygon"), len(res.Regions))
	}
	if !strings.Contains(svg, "test &lt;plot&gt;") {
		t.Fatal("title not escaped/rendered")
	}
	if !strings.Contains(svg, "value") || !strings.Contains(svg, "service") {
		t.Fatal("axis labels missing")
	}
}

func TestWriteSVGValidation(t *testing.T) {
	if err := WriteSVG(&bytes.Buffer{}, nil, Options{}); err == nil {
		t.Fatal("expected error for nil result")
	}
	bad := &core.Result{Space: core.Original}
	if err := WriteSVG(&bytes.Buffer{}, bad, Options{}); err == nil {
		t.Fatal("expected error for original-space result")
	}
	threeD := &core.Result{Focal: geom.Vector{0.1, 0.2, 0.3, 0.4}, Space: core.Transformed,
		Regions: []core.Region{{Witness: geom.Vector{0.1, 0.2, 0.3}}}}
	if err := WriteSVG(&bytes.Buffer{}, threeD, Options{}); err == nil {
		t.Fatal("expected error for 3-d regions")
	}
	// A dominated focal on d=4 data has no region whose witness could
	// reveal the dimensionality; it must be refused all the same.
	ds, err := dataset.Generate(dataset.Independent, 80, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rtree.Build(ds.Records)
	if err != nil {
		t.Fatal(err)
	}
	band := tr.KSkyband(4)
	focal := 0
	for slices.Contains(band, focal) {
		focal++
	}
	empty, err := core.Run(tr, ds.Records[focal], focal, core.Options{K: 4, Algorithm: core.LPCTA})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Regions) != 0 {
		t.Fatalf("focal %d outside the 4-skyband has %d regions", focal, len(empty.Regions))
	}
	if err := WriteSVG(&bytes.Buffer{}, empty, Options{}); err == nil {
		t.Fatal("expected error for an empty d=4 result")
	}
}

func TestFillForRank(t *testing.T) {
	if fillForRank(1, 10) != rankPalette[0] {
		t.Fatal("rank 1 should map to the strongest colour")
	}
	if fillForRank(10, 10) != rankPalette[len(rankPalette)-1] {
		t.Fatal("rank k should map to the weakest colour")
	}
	if fillForRank(5, 0) == "" {
		t.Fatal("k=0 must not panic or return empty")
	}
}

func TestAngularOrderProducesSimplePolygon(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	square := []geom.Vector{{0, 0}, {1, 1}, {1, 0}, {0, 1}}
	rng.Shuffle(len(square), func(i, j int) { square[i], square[j] = square[j], square[i] })
	ordered := angularOrder(square)
	// Consecutive cross products must share a sign for a convex traversal.
	sign := 0.0
	for i := range ordered {
		a, b, c := ordered[i], ordered[(i+1)%4], ordered[(i+2)%4]
		cross := (b[0]-a[0])*(c[1]-b[1]) - (b[1]-a[1])*(c[0]-b[0])
		if cross != 0 {
			if sign == 0 {
				sign = cross
			} else if sign*cross < 0 {
				t.Fatal("angular order is not convex")
			}
		}
	}
}
