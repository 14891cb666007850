// Benchmarks regenerating every figure in the paper's evaluation
// section, one per figure, at a reduced scale suitable for the
// testing.B driver. Run the paper-scale versions with
// cmd/reissue-figures -scale paper. Optimizer micro-benchmarks live
// in reissue; data-structure benchmarks in internal/rangequery.
package repro_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

// benchScale keeps each figure regeneration fast enough to iterate
// under the benchmark driver while exercising the full pipeline.
func benchScale() experiments.Scale {
	return experiments.Scale{Queries: 2000, AdaptiveTrials: 3, Seed: 0x0511}
}

func BenchmarkFigure2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2a(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure2b(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3(b *testing.B) {
	for _, kind := range []experiments.WorkloadKind{
		experiments.Independent, experiments.CorrelatedWL, experiments.Queueing,
	} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.Figure3(kind, benchScale()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure4(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5a(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5b(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5c(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5c(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Figure6(stats.NewExponential(0.1), "Exp(0.1)", benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7a(b *testing.B) {
	for _, kind := range []experiments.SystemKind{experiments.Redis, experiments.Lucene} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunJobs(benchScale(), experiments.Figure7aJob(kind, benchScale())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure7b(b *testing.B) {
	for _, kind := range []experiments.SystemKind{experiments.Redis, experiments.Lucene} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunJobs(benchScale(), experiments.Figure7bJob(kind, benchScale())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure7c(b *testing.B) {
	for _, kind := range []experiments.SystemKind{experiments.Redis, experiments.Lucene} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunJobs(benchScale(), experiments.Figure7cJob(kind, benchScale())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure8(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunJobs(experiments.Scale{}, experiments.Figure9Job()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionOnlineTracking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionOnlineTracking(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionCancellation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionCancellation(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionBurstiness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionBurstiness(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtensionFanOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExtensionFanOut(benchScale()); err != nil {
			b.Fatal(err)
		}
	}
}
