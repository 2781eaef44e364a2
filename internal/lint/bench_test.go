package lint

import "testing"

// BenchmarkRepoVet measures one full cad3-vet pass — load (parallel
// parse + wave type-check) plus the whole analyzer suite — over the real
// module.
func BenchmarkRepoVet(b *testing.B) {
	root, module, err := FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, lerr := NewLoader(root, module).LoadRepo()
		if lerr != nil {
			b.Fatal(lerr)
		}
		RunCensus(prog, Analyzers())
	}
}
