"""Every file a run writes: CSV, JSON, the mesh listing and Matrix Market.

Floats are written with 17 significant digits (`fmt`) so binary64 values
round-trip exactly and identical runs produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path


def fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int,)) and not isinstance(x, bool):
        return str(x)
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(c) if not isinstance(c, str) else c
                              for c in row) + "\n")
    return path


def write_infsup_csv(results, path):
    rows = [(r.triple, r.norms, r.mesh_n, r.params.lam, r.params.rp_inv,
             r.params.alpha_p, r.beta0) for r in results]
    return write_csv(path, ["triple", "norms", "n", "lambda", "rp_inv",
                            "alpha_p", "beta0"], rows)


def write_convergence_csv(table, path):
    rows = [(r.n, r.h_max, r.err_U, r.err_V, r.err_P,
             r.order_U, r.order_V, r.order_P) for r in table.rows]
    return write_csv(path, ["n", "h", "err_U", "err_V", "err_P",
                            "order_U", "order_V", "order_P"], rows)


def write_minres_csv(records, path):
    rows = [(r["n"], r["lambda"], r["rp_inv"], r["alpha_p"], r["iters"],
             r["cond_estimate"]) for r in records]
    return write_csv(path, ["n", "lambda", "rp_inv", "alpha_p", "iters",
                            "cond_estimate"], rows)


def write_resolved_config(cfg_dict, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for key in sorted(cfg_dict):
            val = cfg_dict[key]
            if isinstance(val, float):
                val = fmt(val)
            fh.write(f"{key} = {val}\n")
    return path


def write_json(record, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def write_mesh(mesh, path):
    """Plain-text vertex/cell/edge listing of `mesh` (debugging aid)."""
    lines = [f"# vertices {mesh.num_vertices}"]
    for i, (x, y) in enumerate(mesh.vertices):
        lines.append(f"{i} {fmt(x)} {fmt(y)}")
    lines.append(f"# cells {mesh.num_cells}")
    for k, (a, b, c) in enumerate(mesh.cells):
        lines.append(f"{k} {a} {b} {c}")
    lines.append(f"# edges {mesh.num_edges}")
    for e in range(mesh.num_edges):
        a, b = mesh.edge_vertices[e]
        k1, k2 = mesh.edge_cells[e]
        nx, ny = mesh.edge_normal[e]
        lines.append(f"{e} {a} {b} {k1} {k2} {fmt(nx)} {fmt(ny)} "
                     f"{fmt(mesh.edge_length[e])}")
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_matrix_market(matrix, path):
    """Sparse `matrix` in Matrix Market coordinate format."""
    import scipy.sparse as sps
    from scipy.io import mmwrite
    mmwrite(str(path), sps.coo_matrix(matrix))
    return path
