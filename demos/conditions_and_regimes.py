"""Which solver is guaranteed to work for which game?

Three 3-user games, each with two-element gain alphabets drawn uniformly
(512 channel states), illustrate the three regimes:

  * contraction ratio < 1      -> iterative water-filling converges,
  * ratio >= 1 but PD quadratic form -> regularized projection converges,
  * neither                    -> no guarantee (solvers still run, flagged).
"""

import pathlib

from ifgame import GameSpec, condition_report, enumerate_states, load_config_file

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def bundled(name):
    return load_config_file(CONFIGS / f"{name}.json").game.build_spec()


games = {
    "example1 (weak cross gains)": bundled("example1"),
    "example2 (strong cross gains)": bundled("example2"),
    "pd_not_contractive (small direct spread)": bundled("pd_not_contractive"),
    "no certificate at all": GameSpec.symmetric(3, [0.08], [0.2], pbar=1.0),
}

print(f"{'game':42s} {'rho(Smax)':>10s} {'ratio':>8s} {'contr':>6s} "
      f"{'PD':>4s} {'min sym eig':>12s}")
for name, spec in games.items():
    report = condition_report(spec, enumerate_states(spec))
    print(f"{name:42s} {report.rho_smax:10.4f} {report.ratio_bound:8.4f} "
          f"{str(report.contraction_ok):>6s} {str(report.htilde_pd):>4s} "
          f"{report.min_sym_eig:12.4f}")

print()
print("Every gain has positive probability here and alpha = 1, so rho(Smax)")
print("equals the common row sum (N-1) * max(Hc) / min(Hd); it also equals the")
print("spectral radius of the whole block-diagonal coupling operator, so the")
print("check never needs the dense 1536 x 1536 matrix.")
