#!/usr/bin/env python
"""α study on the synthetic application (the Figure 6 experiment).

Sweeps the average/worst-case execution-time ratio α and shows

* how each scheme's normalized energy responds (dynamic schemes track
  run-time slack; SPM cannot),
* the speed-change counts behind the overhead argument,
* the clairvoyant oracle as a single-speed reference (not a lower
  bound: the schemes can undercut it).

Run:  python examples/alpha_study.py
"""

from repro.core import PAPER_SCHEMES
from repro.experiments import (
    RunConfig,
    render_series,
    render_speed_changes,
    sweep_alpha,
)
from repro.workloads import figure3_graph


def main():
    alphas = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
    schemes = tuple(PAPER_SCHEMES) + ("ORACLE",)

    for model in ("transmeta", "xscale"):
        cfg = RunConfig(schemes=schemes, power_model=model,
                        n_processors=2, n_runs=300, seed=2002)
        series = sweep_alpha(figure3_graph, cfg, load=0.9,
                             alphas=alphas, name=f"alpha-study-{model}")
        print(render_series(series))
        print(render_speed_changes(series))

        # headline numbers
        lo, hi = alphas[0], alphas[-1]
        gss_gain = (series.get(hi, "GSS").mean
                    - series.get(lo, "GSS").mean)
        print(f"[{model}] GSS normalized energy rises by "
              f"{gss_gain:+.3f} from α={lo} to α={hi} "
              f"(run-time slack disappears)\n")

        for a in (0.5,):
            gap = (series.get(a, "GSS").mean
                   - series.get(a, "ORACLE").mean)
            print(f"[{model}] at α={a}, GSS is {gap:+.3f} above the "
                  f"clairvoyant single-speed bound\n")


if __name__ == "__main__":
    main()
