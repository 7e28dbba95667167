"""
Linear versus quadratic attention cost, measured
================================================

Runs the three attention kernels standalone over a growing patch
count (the same sweep as ``dualcap bench``) and prints instrumented
FLOPs next to the closed forms.  The windowed and grouped kernels grow
linearly in P; full global attention quadruples its core term every
time P doubles, which the library's linear and quadratic fits show.
"""

from dualcap.cli import RunConfig, bench_rows, format_bench

rc = RunConfig(dim=32, window_patches=8, groups=4, heads=4)
c, p_w = rc.dim, rc.window_patches
c_g, c_h = c // rc.groups, c // rc.heads

print(f"C = {c}, window {p_w} patches, {rc.groups} channel groups, {rc.heads} global heads")
rows = bench_rows(rc)
for row in rows:
    p = row["patches"]
    match = (row["windowed_flops"] == 6 * p * c * c + 4 * p * p_w * c
             and row["channel_flops"] == 10 * p * c * c_g
             and row["global_flops"] == 6 * p * c * c_h + 4 * p * p * c)
    print(f"P = {p:>3}: FLOPs match the closed forms exactly: {match}")
print(format_bench(rows))
