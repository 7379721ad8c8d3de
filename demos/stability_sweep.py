"""Run a seeded random sweep over mean-free graph perturbations and check
every sample against the coercivity prediction.

Two runs with the same seed produce byte-identical payloads, which is what
makes sweep artifacts diffable.
"""

from hawkmass import SweepConfig, perturbation_sweep

cfg = SweepConfig(a=0.5, base_r=0.0, epsilon=1e-2, n_samples=40,
                  master_seed=2024)
report = perturbation_sweep(cfg)

agg = report.aggregate()
print(f"samples            : {agg['n_samples']}")
print(f"all deficits < 0   : {report.all_negative}")
print(f"coercivity constant: {report.c_est:.9f}")
print(f"min bound ratio    : {agg['min_ratio']:.6f}")
print(f"max bound ratio    : {agg['max_ratio']:.6f}")
print(f"sweep verdict      : {'pass' if report.ok else 'FAIL'}")

replay = perturbation_sweep(cfg)
same = replay.records_payload() == report.records_payload()
print(f"replay byte-identical: {same}")

print()
print("first three records:")
for rec in report.records[:3]:
    print(f"  sample {rec.index:3d}  c2 {rec.c2_norm:.3e}  "
          f"deficit {rec.deficit:+.6e}  ratio {rec.ratio:.4f}")
