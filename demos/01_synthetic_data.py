"""Generate a synthetic flight dataset and look at its class balance.

The generator mimics a two-year domestic flight extract: calendar and route
columns are categorical, the two scheduled times are continuous HH:MM values,
and the binary label marks arrivals more than 15 minutes late.  Labels come
from a hidden circadian rule on the scheduled times plus noise, so a model
can learn the signal but not memorize a trivial boundary.
"""

import numpy as np

import delayboost as db

# A deterministic 2,000-row dataset with 20% delayed flights.
ds = db.generate_synthetic(2000, positive_fraction=0.2, seed=7)

print("columns:")
for col in ds.schema.columns:
    print(f"  {col.name:<28} {col.kind}")

balance = db.class_balance(ds)
print(f"\nrows: {ds.n_rows}")
print(f"on-time (label 0): {balance.negatives}")
print(f"delayed (label 1): {balance.positives}")


def same_cells(a, b):
    """True when two datasets hold equal cells, column by column."""
    return all(np.array_equal(a.column(n), b.column(n)) for n in a.schema.names)


# A dataset stores one NumPy array per column.
print(f"first departure times: {ds.column('CRS_Departure_Time')[:5].tolist()}")

# The same spec and seed always produce byte-identical data.
again = db.generate_synthetic(2000, positive_fraction=0.2, seed=7)
print(f"\nsame seed reproduces rows exactly: {same_cells(again, ds)}")

# Write it out in the same CSV dialect the loader reads.
db.write_csv(ds, "synthetic_flights.csv")
with open("synthetic_schema.json", "w", encoding="utf-8") as fh:
    fh.write(ds.schema.to_json() + "\n")
print("\nwrote synthetic_flights.csv and synthetic_schema.json")

# Loading the file back gives the identical dataset.
loaded = db.load_csv("synthetic_flights.csv", ds.schema)
print(f"round trip preserves every cell: {same_cells(loaded, ds)}")
