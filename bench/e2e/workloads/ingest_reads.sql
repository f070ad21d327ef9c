# ingest_subscribe reader templates: the eight car templates of
# serve_adhoc.sql plus the first subscribed statement, which has no
# literals. Each ${name} is drawn from its range in literals.txt. The
# benchmark expands these into 72 statements, the same for every seed:
# statement i comes from template i mod 9, so the 64 car statements are
# all distinct and the subscribed statement appears 8 times. Both readers
# cycle the 72 from their own offsets.
#
# With distinct literals a car statement comes round again only every 36
# or so reads, and some mutation has invalidated its cache entry by then:
# every car read is cold. With the eight fixed car statements a read
# found its entry or not depending on how soon after the writer it came,
# and a faster machine served more reads from the cache, so
# read_p50_ms moved twice as much as the machine's speed.
SELECT * FROM car WHERE year >= ${year} AND mileage < ${mileage_cap} PREFERRING LOWEST(price)
SELECT oid, price, mileage FROM car WHERE price < ${price_cap} PREFERRING LOWEST(price) AND LOWEST(mileage) AND HIGHEST(horsepower)
SELECT * FROM car WHERE price < ${price_cap} PREFERRING (category = 'roadster' ELSE category <> 'passenger') AND price AROUND ${around} CASCADE LOWEST(mileage)
SELECT * FROM car WHERE year >= ${year} AND mileage < ${mileage_cap} PREFERRING LOWEST(price) GROUPING category
SELECT TOP ${top_k} oid, price, mileage FROM car WHERE year >= ${year} PREFERRING LOWEST(price) AND LOWEST(mileage)
SELECT * FROM car WHERE mileage < ${mileage_cap} SKYLINE OF price MIN, mileage MIN
SELECT * FROM car PREFERRING price AROUND ${around} BUT ONLY DISTANCE(price) <= ${distance}
SELECT oid FROM car WHERE price < ${price_cap} LIMIT ${limit}
SELECT * FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)
