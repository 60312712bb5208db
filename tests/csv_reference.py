"""The ``csv.writer`` form of the artifact writers, kept as a test reference.

``surface._write_csv`` formats rows itself, from one ``repr`` per distinct
value of a row block; these functions write the same files element by
element through ``csv.writer`` and must give the same bytes.
"""

import csv


def _header(fh, header_lines):
    for line in header_lines:
        fh.write(f"# {line}\n")


def surface_csv(path, surface, time_indices, header_lines):
    """``PriceSurface.to_csv``: ``t,x,v,value`` rows."""
    dt = surface.grid.dt
    with open(path, "w", newline="") as fh:
        _header(fh, header_lines)
        writer = csv.writer(fh)
        writer.writerow(["t", "x", "v", "value"])
        for k in time_indices:
            F = surface.slice_at(int(k))
            t = k * dt
            for i, x in enumerate(surface.grid.x_nodes):
                for j, v in enumerate(surface.grid.v_nodes):
                    writer.writerow([repr(float(t)), repr(float(x)),
                                     repr(float(v)), repr(float(F[i, j]))])


def paths_csv(path, batch, max_paths, header_lines):
    """``PathBatch.to_csv``: ``path,step,t,x,v`` rows."""
    keep = batch.n_paths if max_paths is None else min(max_paths, batch.n_paths)
    t = batch.t_nodes
    with open(path, "w", newline="") as fh:
        _header(fh, header_lines)
        writer = csv.writer(fh)
        writer.writerow(["path", "step", "t", "x", "v"])
        for i in range(keep):
            for k in range(batch.n_steps + 1):
                writer.writerow([i, k, repr(float(t[k])),
                                 repr(float(batch.x_paths[i, k])),
                                 repr(float(batch.v_paths[i, k]))])


def field_csv(path, field, x_nodes, v_nodes, header_lines):
    """``ControlField.to_csv``: ``x,v,q_star`` rows."""
    with open(path, "w", newline="") as fh:
        _header(fh, header_lines)
        writer = csv.writer(fh)
        writer.writerow(["x", "v", "q_star"])
        for i, x in enumerate(x_nodes):
            for j, v in enumerate(v_nodes):
                writer.writerow([repr(float(x)), repr(float(v)),
                                 repr(float(field.q_star[i, j]))])
