// Command tpchgen generates the TPC-H-style benchmark data and either
// prints table statistics or exports a table as CSV.
//
//	tpchgen -sf 0.1                    # print row counts
//	tpchgen -sf 0.1 -table lineitem -csv -limit 100 > lineitem.csv
package main

import (
	"flag"
	"fmt"
	"os"

	"inkfuse/internal/storage"
	"inkfuse/internal/tpch"
)

func main() {
	sf := flag.Float64("sf", 0.01, "scale factor (1.0 ≈ 6M lineitem rows)")
	seed := flag.Uint64("seed", 42, "generator seed")
	table := flag.String("table", "", "table to export")
	asCSV := flag.Bool("csv", false, "write the table as CSV to stdout")
	limit := flag.Int("limit", 0, "max rows to export (0 = all)")
	flag.Parse()

	cat := tpch.Generate(*sf, *seed)

	if *table == "" {
		fmt.Printf("TPC-H-style catalog at SF %g (seed %d)\n", *sf, *seed)
		for _, name := range []string{"region", "nation", "supplier", "customer", "part", "orders", "lineitem"} {
			t := cat.MustGet(name)
			fmt.Printf("  %-10s %10d rows, %d columns\n", name, t.Rows(), len(t.Schema))
		}
		return
	}

	t, err := cat.Get(*table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpchgen:", err)
		os.Exit(1)
	}
	if !*asCSV {
		fmt.Printf("%s: %d rows\n", t.Name, t.Rows())
		return
	}
	if err := storage.WriteCSV(t, os.Stdout, *limit); err != nil {
		fmt.Fprintln(os.Stderr, "tpchgen:", err)
		os.Exit(1)
	}
}
