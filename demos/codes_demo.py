#!/usr/bin/env python3
"""Code matrices turn the solution search into a coding problem.

For the (n, r) code matrix the forbidden set is exactly the punctured
Hamming ball of radius r, so solutions are codes of distance r + 1.
The script finds the exact optimum for a few shapes and compares it to
the classical packing bounds.
"""

from minrank import (
    CodeMatrixSpec,
    code_matrix,
    gv_bound,
    hamming_bound,
    lin_exact,
    min_distance,
    opt_exact,
    vec_text,
    verify_ka_is_ball,
)


def main():
    spec = CodeMatrixSpec(6, 2)
    A = code_matrix(spec)
    assert verify_ka_is_ball(spec)
    value, sol = opt_exact(A)
    print(f"(6, 2): optimum {value}, a distance-{min_distance(sol)} code:")
    for x in sol.sorted_members():
        print(" ", vec_text(x, 6))

    print("\n   n  r   lin   opt  hamming  gv")
    for n, r in ((5, 1), (6, 2), (7, 2)):
        A = code_matrix(CodeMatrixSpec(n, r))
        value, _ = opt_exact(A)
        hb = hamming_bound(n, r)
        gv = gv_bound(n, r)
        print(f"  {n:2d} {r:2d} {lin_exact(A):5d} {value:5d} {hb:8d} {gv:3d}")
    print("\nat (7, 2) the optimum meets the Hamming bound: that is the")
    print("perfect single-error-correcting code on 7 bits")


if __name__ == "__main__":
    main()
