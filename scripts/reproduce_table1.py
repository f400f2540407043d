#!/usr/bin/env python3
"""Recompute blockage parameters for the five reference regions and compare
them against the published values, flagging documented inconsistencies."""

from mmudn.blockage import REFERENCE_REGIONS, blockage_params

HEADER = (
    f"{'region':<10} {'beta':>8} {'beta_pub':>9} {'eta':>7} {'eta_pub':>8} "
    f"{'R2D':>8} {'R2D_pub':>8} {'R3D':>8} {'R3D_pub':>8}"
)


def main() -> None:
    print(HEADER)
    for name, rec in REFERENCE_REGIONS.items():
        p = blockage_params(rec["stats"])
        flag = ""
        if rec.get("beta_typo"):
            flag = "  <- published beta inconsistent with its own inputs"
        print(
            f"{name:<10} {p.beta:8.4f} {rec['beta']:9.4f} {p.eta:7.4f} "
            f"{rec['eta']:8.4f} {p.r_los_2d:8.2f} {rec['r_los_2d']:8.2f} "
            f"{p.r_los_2d / rec['eta']:8.2f} {rec['r_los_3d']:8.2f}{flag}"
        )
    print(
        "\nNotes: recomputed eta uses the printed height-fraction formula with "
        "floor height 3 m;\nthe recomputed 3D LOS distance divides the "
        "recomputed 2D one by the published eta."
    )


if __name__ == "__main__":
    main()
