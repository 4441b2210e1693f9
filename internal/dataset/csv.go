package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/geom"
)

// WriteCSV writes the dataset with a header row. When the dataset has
// labels, a leading "label" column is emitted.
func (d *Dataset) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	hasLabels := len(d.Labels) == len(d.Records) && len(d.Labels) > 0
	header := make([]string, 0, len(d.Attributes)+1)
	if hasLabels {
		header = append(header, "label")
	}
	header = append(header, d.Attributes...)
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	row := make([]string, 0, len(header))
	for i, r := range d.Records {
		row = row[:0]
		if hasLabels {
			row = append(row, d.Labels[i])
		}
		for _, v := range r {
			row = append(row, strconv.FormatFloat(v, 'g', -1, 64))
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset written by WriteCSV (or any CSV with a header
// row; a first column named "label" is treated as record labels).
func ReadCSV(r io.Reader, name string) (*Dataset, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	hasLabels := len(header) > 0 && header[0] == "label"
	start := 0
	if hasLabels {
		start = 1
	}
	d := &Dataset{Name: name, Attributes: append([]string(nil), header[start:]...)}
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if len(row) != len(header) {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(row), len(header))
		}
		vals := make([]float64, 0, len(row)-start)
		for _, f := range row[start:] {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: %w", line, err)
			}
			vals = append(vals, v)
		}
		if err := geom.CheckFinite(vals); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", line, err)
		}
		if hasLabels {
			d.Labels = append(d.Labels, row[0])
		}
		d.Records = append(d.Records, vals)
	}
	return d, nil
}
