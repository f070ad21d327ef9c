# serve_adhoc statement templates: the serve_warm statements with drawn
# literals (price bounds, AROUND targets, TOP k values, year cutoffs).
# Each ${name} is drawn uniformly from its range in literals.txt. The
# benchmark expands these into 4096 distinct statements, the same for
# every seed, with statement r (Zipf rank r) from template r mod 10; the
# seed draws which statements are requested, in which order.
SELECT * FROM car WHERE year >= ${year} AND mileage < ${mileage_cap} PREFERRING LOWEST(price)
SELECT oid, price, mileage FROM car WHERE price < ${price_cap} PREFERRING LOWEST(price) AND LOWEST(mileage) AND HIGHEST(horsepower)
SELECT * FROM car WHERE price < ${price_cap} PREFERRING (category = 'roadster' ELSE category <> 'passenger') AND price AROUND ${around} CASCADE LOWEST(mileage)
SELECT * FROM car WHERE year >= ${year} AND mileage < ${mileage_cap} PREFERRING LOWEST(price) GROUPING category
SELECT TOP ${top_k} oid, price, mileage FROM car WHERE year >= ${year} PREFERRING LOWEST(price) AND LOWEST(mileage)
SELECT * FROM car WHERE mileage < ${mileage_cap} SKYLINE OF price MIN, mileage MIN
SELECT * FROM car PREFERRING price AROUND ${around} BUT ONLY DISTANCE(price) <= ${distance}
SELECT oid FROM car WHERE price < ${price_cap} LIMIT ${limit}
SELECT * FROM trip WHERE price < ${trip_price_cap} PREFERRING LOWEST(price) AND HIGHEST(duration)
SELECT TOP ${top_k} oid, destination, price FROM trip WHERE start_date >= ${start_day} PREFERRING LOWEST(price)
