# Dimension windows over a descending, offset grid, answered by array.slab
# on every path but noindex-1t, which keeps the dimension-column scan.
# x runs 10, 8, 6, 4, 2 (DIMENSION[10:-2:0]) and y runs -3, -1, 1, 3, so
# bounds must map onto index intervals in both directions, round decimal
# bounds like the scan's promoted compare, drop off-grid values and keep
# the scan's row order (x descending here, as stored).

statement ok
CREATE ARRAY neg (x INT DIMENSION[10:-2:0], y INT DIMENSION[-3:2:5], v INT DEFAULT 0)

statement ok
UPDATE neg SET v = x * 10 + y

query
SELECT x, y, v FROM neg WHERE x <= 6.5 AND x > 3 AND y BETWEEN -1 AND 1.5
----
6|-1|59
6|1|61
4|-1|39
4|1|41

# Literal first; 5 > x keeps 4 and 2.
query
SELECT x, y, v FROM neg WHERE 5 > x AND y = -3
----
4|-3|37
2|-3|17

# Off the grid: no x is 7 or 8.5.
query
SELECT COUNT(*) AS c0 FROM neg WHERE x = 7 OR x = 8.5
----
0

query
SELECT x, y, v FROM neg WHERE x = 8.5
----

query
SELECT x, y, v FROM neg WHERE x = 8.0 AND y >= 3
----
8|3|83

# A NULL bound selects nothing.
query
SELECT x, y, v FROM neg WHERE x BETWEEN 4 AND NULL
----

# Window DML through the same slab: the cells touched match the scan's.
statement ok
UPDATE neg SET v = -v WHERE x >= 9.5 AND y < 0

statement ok
DELETE FROM neg WHERE x < 2.5 AND y > 2 AND v > 0

query
SELECT x, y, v FROM neg WHERE x >= 10
----
10|-3|-97
10|-1|-99
10|1|101
10|3|103

query
SELECT x, y, v FROM neg WHERE x <= 2 AND y >= -1
----
2|-1|19
2|1|21
2|3|null
