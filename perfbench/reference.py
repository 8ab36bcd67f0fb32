"""Fixed reference computation that does not touch modiso.

run.py runs it in a fresh interpreter after every command and divides the
commands' wall time by its median wall time, which cancels most of the host's
drift in speed. The mix resembles modiso's: a numpy import, uint8 table gathers,
small float64 matmuls and a pure-Python loop. Changing it changes the scale of
`wall_rel`, so it is part of the benchmark's definition.
"""

import numpy as np

T = (np.arange(256 * 256, dtype=np.int64).reshape(256, 256) * 7 % 251).astype(np.uint8)
V = (np.arange(400 * 256, dtype=np.int64).reshape(400, 256) * 13 % 251).astype(np.uint8)
x = V
for _ in range(150):
    x = T[x, V]
M = (np.arange(96 * 96).reshape(96, 96) % 7).astype(np.float64)
for _ in range(300):
    M = np.rint(M @ M) % 7
acc = 0
for i in range(200000):
    acc = (acc * 31 + i) % 1000003
