package region

import (
	"testing"

	"precinct/internal/geo"
	"precinct/internal/workload"
)

func BenchmarkHomeRegion(b *testing.B) {
	tab, err := NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(1200, 1200)), 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.HomeRegion(workload.Key(i % 1000))
	}
}

func BenchmarkReplicaRegionAt(b *testing.B) {
	tab, err := NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(1200, 1200)), 5, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.ReplicaRegionAt(workload.Key(i%1000), 1)
	}
}

func BenchmarkLocate(b *testing.B) {
	tab, err := NewGrid(geo.NewRect(geo.Pt(0, 0), geo.Pt(1200, 1200)), 3, 3)
	if err != nil {
		b.Fatal(err)
	}
	pts := make([]geo.Point, 64)
	for i := range pts {
		pts[i] = geo.Pt(float64(i*17%1200), float64(i*31%1200))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Locate(pts[i%len(pts)])
	}
}
