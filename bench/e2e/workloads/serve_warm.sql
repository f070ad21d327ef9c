# serve_warm and serve_pipelined replay this mix; each reader connection
# cycles through it from its own offset. The ten statements are copied
# from bench/query_mix.sql (not read from it), so edits there cannot
# change this benchmark. One statement per line; '#' and blank lines are
# skipped.
SELECT * FROM car PREFERRING LOWEST(price)
SELECT oid, price, mileage FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) AND HIGHEST(horsepower)
SELECT * FROM car WHERE price < 30000 PREFERRING (category = 'roadster' ELSE category <> 'passenger') AND price AROUND 20000 CASCADE LOWEST(mileage)
SELECT * FROM car PREFERRING LOWEST(price) GROUPING category
SELECT TOP 10 oid, price, mileage FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)
SELECT * FROM car SKYLINE OF price MIN, mileage MIN
SELECT * FROM car PREFERRING price AROUND 15000 BUT ONLY DISTANCE(price) <= 2000
SELECT oid FROM car WHERE price < 42000 LIMIT 5
SELECT * FROM trip PREFERRING LOWEST(price) AND HIGHEST(duration)
SELECT TOP 5 oid, destination, price FROM trip PREFERRING LOWEST(price)
