#!/usr/bin/env python3
"""Plot the paper's figures from the bench harnesses' CSV output.

Usage:
    mkdir -p results
    SVO_CSV=results ./build/bench/bench_paper_figures
    python3 tools/plot_figures.py results/ out/

Requires matplotlib (not needed for anything else in this repository).
Each CSV written by bench/ has a header row; the mapping below mirrors
DESIGN.md's experiment index.
"""

import csv
import pathlib
import sys


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    header, data = rows[0], rows[1:]
    return header, data


def line_plot(ax, header, data, x_col, y_cols, x_log=True):
    xs = [float(r[x_col]) for r in data]
    for col in y_cols:
        ys = [float(r[col]) for r in data]
        ax.plot(xs, ys, marker="o", label=header[col])
    if x_log:
        ax.set_xscale("log", base=2)
    ax.set_xlabel(header[x_col])
    ax.legend()
    ax.grid(True, alpha=0.3)


FIGURES = {
    # csv name -> (y columns, title, ylabel)
    "fig1_payoff.csv": ([1, 2], "Fig. 1: GSP individual payoff", "payoff"),
    "fig2_vo_size.csv": ([1, 2], "Fig. 2: final VO size", "|C|"),
    "fig3_reputation.csv": ([1, 2], "Fig. 3: average global reputation",
                            "avg reputation"),
    "fig9_exec_time.csv": ([1, 2], "Fig. 9: mechanism execution time",
                           "seconds"),
}

ITERATION_TRACES = {
    "fig56_tvof_program_A.csv": "Fig. 5: TVOF iterations (program A)",
    "fig56_tvof_program_B.csv": "Fig. 6: TVOF iterations (program B)",
    "fig78_rvof_program_A.csv": "Fig. 7: RVOF iterations (program A)",
    "fig78_rvof_program_B.csv": "Fig. 8: RVOF iterations (program B)",
}


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib is required: pip install matplotlib")
        return 1

    csv_dir = pathlib.Path(sys.argv[1])
    out_dir = pathlib.Path(sys.argv[2])
    out_dir.mkdir(parents=True, exist_ok=True)
    produced = 0

    for name, (y_cols, title, ylabel) in FIGURES.items():
        path = csv_dir / name
        if not path.exists():
            continue
        header, data = read_csv(path)
        fig, ax = plt.subplots(figsize=(6, 4))
        line_plot(ax, header, data, 0, y_cols)
        ax.set_title(title)
        ax.set_ylabel(ylabel)
        fig.tight_layout()
        fig.savefig(out_dir / (name.replace(".csv", ".png")), dpi=150)
        plt.close(fig)
        produced += 1

    for name, title in ITERATION_TRACES.items():
        path = csv_dir / name
        if not path.exists():
            continue
        header, data = read_csv(path)
        sizes = [float(r[0]) for r in data if r[1] == "yes"]
        payoff = [float(r[2]) for r in data if r[1] == "yes"]
        rep = [float(r[3]) for r in data if r[1] == "yes"]
        fig, ax = plt.subplots(figsize=(6, 4))
        ax.plot(sizes, payoff, marker="o", color="tab:blue",
                label="payoff share")
        ax.set_xlabel("|C| (VO size; iterations run right to left)")
        ax.set_ylabel("payoff share", color="tab:blue")
        ax.invert_xaxis()
        ax2 = ax.twinx()
        ax2.plot(sizes, rep, marker="s", color="tab:red",
                 label="avg reputation")
        ax2.set_ylabel("avg global reputation", color="tab:red")
        ax.set_title(title)
        fig.tight_layout()
        fig.savefig(out_dir / (name.replace(".csv", ".png")), dpi=150)
        plt.close(fig)
        produced += 1

    print(f"wrote {produced} figures to {out_dir}")
    return 0 if produced else 1


if __name__ == "__main__":
    sys.exit(main())
